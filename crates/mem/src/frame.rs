//! Container framing shared by every gcl on-disk format (checkpoints,
//! cache entries, traces, the journal; DESIGN.md §6 "Container framing"):
//!
//! ```text
//! header   magic[8] | u32 version | u64 tag | u64 word     (28 bytes, LE)
//! section  u64 len  | payload     | u64 fnv(payload)
//! seal     u64 fnv(every preceding byte of the file)
//! ```

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a offset basis: the initial value of every checksum and digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold one 64-bit value into an FNV-1a digest (little-endian bytes).
#[inline]
pub fn fnv_fold(h: u64, v: u64) -> u64 {
    fnv_fold_bytes(h, &v.to_le_bytes())
}

/// Fold a byte slice into an FNV-1a digest (container checksums and
/// config/kernel fingerprints).
#[inline]
pub fn fnv_fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

type Magic = [u8; 8];
const HEADER_LEN: usize = 28;
const SEAL_LEN: usize = 8;

/// Why framed bytes were rejected; each format maps it into its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes present contradict the format's magic.
    BadMagic,
    /// The bytes end before a declared structure is complete.
    Truncated,
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version the reader understands.
        expected: u32,
    },
    /// The trailing whole-file seal does not match the contents.
    ChecksumMismatch,
    /// A section's own checksum does not match its payload.
    SectionChecksumMismatch,
    /// The header fields disagree with the bytes that follow.
    Malformed(&'static str),
}

fn le_u64(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b))
}

/// Check magic, then length, then version, and return the bytes after
/// the version field. `version` is the expected field as little-endian
/// bytes; `min_len` is the shortest well-formed file. A file cut inside a
/// header that still matches the magic is `Truncated`, not `BadMagic`.
pub fn check_header<'a>(
    bytes: &'a [u8],
    magic: &Magic,
    version: &[u8],
    min_len: usize,
) -> Result<&'a [u8], FrameError> {
    let n = bytes.len().min(magic.len());
    if bytes[..n] != magic[..n] {
        return Err(FrameError::BadMagic);
    }
    if bytes.len() < min_len.max(magic.len() + version.len()) {
        return Err(FrameError::Truncated);
    }
    let (found, rest) = bytes[magic.len()..].split_at(version.len());
    if found != version {
        return Err(FrameError::VersionMismatch {
            found: le_u64(found) as u32,
            expected: le_u64(version) as u32,
        });
    }
    Ok(rest)
}

/// The 28-byte header.
pub fn header(magic: &Magic, version: u32, tag: u64, word: u64) -> Vec<u8> {
    let mut h = magic.to_vec();
    h.extend_from_slice(&version.to_le_bytes());
    h.extend_from_slice(&tag.to_le_bytes());
    h.extend_from_slice(&word.to_le_bytes());
    h
}

/// A validated header-and-seal container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The header's `tag` field (a fingerprint or key).
    pub tag: u64,
    /// The header's `word` field (a payload length or section count).
    pub word: u64,
    /// Everything between the header and the seal.
    pub body: &'a [u8],
    /// The verified whole-file seal (the container's content address).
    pub seal: u64,
}

/// Validate a header-and-seal container: magic, length, version, seal.
pub fn open<'a>(bytes: &'a [u8], magic: &Magic, version: u32) -> Result<Frame<'a>, FrameError> {
    let rest = check_header(bytes, magic, &version.to_le_bytes(), HEADER_LEN + SEAL_LEN)?;
    let (sealed, trailer) = bytes.split_at(bytes.len() - SEAL_LEN);
    let seal = fnv_fold_bytes(FNV_OFFSET, sealed);
    if seal != le_u64(trailer) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(Frame {
        tag: le_u64(&rest[..8]),
        word: le_u64(&rest[8..16]),
        body: &sealed[HEADER_LEN..],
        seal,
    })
}

/// Validate a single-payload container (`word` is the payload length) and
/// return its `tag` and payload. A seal failure with fewer payload bytes
/// than declared is a clean truncation, not corruption.
pub fn open_payload<'a>(
    bytes: &'a [u8],
    magic: &Magic,
    version: u32,
) -> Result<(u64, &'a [u8]), FrameError> {
    match open(bytes, magic, version) {
        Ok(f) if f.word == f.body.len() as u64 => Ok((f.tag, f.body)),
        Ok(_) => Err(FrameError::Malformed("payload length mismatch")),
        Err(FrameError::ChecksumMismatch)
            if le_u64(&bytes[20..28]) > (bytes.len() - HEADER_LEN - SEAL_LEN) as u64 =>
        {
            Err(FrameError::Truncated)
        }
        Err(e) => Err(e),
    }
}

/// Serialize a single-payload container.
pub fn seal_payload(magic: &Magic, version: u32, tag: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = header(magic, version, tag, payload.len() as u64);
    out.reserve(payload.len() + SEAL_LEN);
    out.extend_from_slice(payload);
    let seal = fnv_fold_bytes(FNV_OFFSET, &out);
    out.extend_from_slice(&seal.to_le_bytes());
    out
}

/// Stream a container too large to hold in memory: `header`, then all of
/// `body`, then the seal. Returns the seal and the bytes written.
pub fn write_sealed(
    w: &mut impl Write,
    header: &[u8],
    body: &mut impl Read,
) -> io::Result<(u64, u64)> {
    w.write_all(header)?;
    let (mut seal, mut len) = (fnv_fold_bytes(FNV_OFFSET, header), header.len() + SEAL_LEN);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let n = body.read(&mut chunk)?;
        if n == 0 {
            w.write_all(&seal.to_le_bytes())?;
            return Ok((seal, len as u64));
        }
        w.write_all(&chunk[..n])?;
        seal = fnv_fold_bytes(seal, &chunk[..n]);
        len += n;
    }
}

/// Write one `len | payload | fnv(payload)` section.
pub fn write_section(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv_fold_bytes(FNV_OFFSET, payload).to_le_bytes())
}

/// Split the section at the front of `bytes` into its verified payload
/// and the bytes after it. A section that does not fit, however large its
/// declared length, is `Truncated`.
pub fn split_section(bytes: &[u8]) -> Result<(&[u8], &[u8]), FrameError> {
    if bytes.len() < 16 {
        return Err(FrameError::Truncated);
    }
    let (len, rest) = bytes.split_at(8);
    match usize::try_from(le_u64(len)) {
        Ok(len) if len <= rest.len() - 8 => {
            let (payload, rest) = rest.split_at(len);
            let (sum, rest) = rest.split_at(8);
            if fnv_fold_bytes(FNV_OFFSET, payload) != le_u64(sum) {
                return Err(FrameError::SectionChecksumMismatch);
            }
            Ok((payload, rest))
        }
        _ => Err(FrameError::Truncated),
    }
}

/// Atomically publish `path`: `write` fills a temp file unique to this
/// writer, `<file>.tmp.<pid>.<seq>` in the same directory, which is then
/// renamed over `path`. On failure the temp file is removed and `path` is
/// untouched. Callers that need durability fsync inside `write`.
pub fn publish<R>(path: &Path, write: impl FnOnce(&mut File) -> io::Result<R>) -> io::Result<R> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = path.with_file_name(name);
    let result = File::create(&tmp)
        .and_then(|mut f| write(&mut f))
        .and_then(|r| std::fs::rename(&tmp, path).map(|()| r));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"GCLTEST1";

    fn sample() -> Vec<u8> {
        seal_payload(&MAGIC, 3, 0xDEAD_BEEF, &(0..=255u8).collect::<Vec<_>>())
    }

    fn sectioned() -> Vec<u8> {
        let mut sections = Vec::new();
        write_section(&mut sections, b"first").unwrap();
        write_section(&mut sections, &[]).unwrap();
        let mut out = Vec::new();
        let (seal, len) =
            write_sealed(&mut out, &header(&MAGIC, 3, 7, 2), &mut &sections[..]).unwrap();
        assert_eq!(len, out.len() as u64);
        assert_eq!(seal, le_u64(&out[out.len() - SEAL_LEN..]));
        out
    }

    fn reseal(bytes: &mut [u8]) {
        let n = bytes.len() - SEAL_LEN;
        let seal = fnv_fold_bytes(FNV_OFFSET, &bytes[..n]);
        bytes[n..].copy_from_slice(&seal.to_le_bytes());
    }

    #[test]
    fn payload_round_trips_borrowed() {
        let bytes = sample();
        let (tag, payload) = open_payload(&bytes, &MAGIC, 3).unwrap();
        assert_eq!(tag, 0xDEAD_BEEF);
        assert_eq!(payload, &bytes[HEADER_LEN..bytes.len() - SEAL_LEN]);
    }

    #[test]
    fn sections_round_trip() {
        let bytes = sectioned();
        let f = open(&bytes, &MAGIC, 3).unwrap();
        assert_eq!((f.tag, f.word), (7, 2));
        let (a, rest) = split_section(f.body).unwrap();
        let (b, rest) = split_section(rest).unwrap();
        assert_eq!((a, b, rest), (&b"first"[..], &[][..], &[][..]));
        assert_eq!(
            f.seal,
            fnv_fold_bytes(FNV_OFFSET, &bytes[..bytes.len() - 8])
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample();
        for n in 0..bytes.len() {
            assert_eq!(
                open_payload(&bytes[..n], &MAGIC, 3),
                Err(FrameError::Truncated),
                "single-payload truncation to {n}"
            );
        }
        let bytes = sectioned();
        for n in 0..bytes.len() {
            let err = open(&bytes[..n], &MAGIC, 3).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated | FrameError::ChecksumMismatch),
                "truncation to {n} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        for bytes in [sample(), sectioned()] {
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                let err = open(&bad, &MAGIC, 3).unwrap_err();
                let want = match i {
                    0..=7 => FrameError::BadMagic,
                    8..=11 => FrameError::VersionMismatch {
                        found: 3 ^ (0x40 << (8 * (i - 8))),
                        expected: 3,
                    },
                    _ => FrameError::ChecksumMismatch,
                };
                assert_eq!(err, want, "flip at byte {i}");
            }
        }
    }

    #[test]
    fn version_is_checked_before_checksum() {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let expect = Err(FrameError::VersionMismatch {
            found: 99,
            expected: 3,
        });
        assert_eq!(open_payload(&bytes, &MAGIC, 3), expect);
        reseal(&mut bytes);
        assert_eq!(open_payload(&bytes, &MAGIC, 3), expect);
    }

    #[test]
    fn short_version_field_uses_the_same_order() {
        let good = [&MAGIC[..], &[1, 0]].concat();
        assert_eq!(check_header(&good, &MAGIC, &[1, 0], 10), Ok(&[][..]));
        assert_eq!(
            check_header(&good[..5], &MAGIC, &[1, 0], 10),
            Err(FrameError::Truncated)
        );
        assert_eq!(
            check_header(b"GCLX", &MAGIC, &[1, 0], 10),
            Err(FrameError::BadMagic)
        );
        assert_eq!(
            check_header(&[&MAGIC[..], &[2, 0]].concat(), &MAGIC, &[1, 0], 10),
            Err(FrameError::VersionMismatch {
                found: 2,
                expected: 1
            })
        );
    }

    #[test]
    fn payload_length_disagreeing_with_a_valid_seal_is_malformed() {
        let mut bytes = sample();
        bytes[20..28].copy_from_slice(&7u64.to_le_bytes());
        reseal(&mut bytes);
        assert_eq!(
            open_payload(&bytes, &MAGIC, 3),
            Err(FrameError::Malformed("payload length mismatch"))
        );
    }

    #[test]
    fn overflowing_section_length_is_truncated() {
        for len in [u64::MAX, u64::MAX - 3, u64::MAX - 15, 1 << 62, 9] {
            let mut s = len.to_le_bytes().to_vec();
            s.extend_from_slice(&[0; 8]);
            assert_eq!(split_section(&s), Err(FrameError::Truncated), "len {len}");
        }
        let mut bytes = sectioned();
        bytes[HEADER_LEN + 7] ^= 0x80;
        reseal(&mut bytes);
        let f = open(&bytes, &MAGIC, 3).unwrap();
        assert_eq!(split_section(f.body), Err(FrameError::Truncated));
        let mut bytes = sectioned();
        bytes[HEADER_LEN + 8] ^= 0x01;
        reseal(&mut bytes);
        let f = open(&bytes, &MAGIC, 3).unwrap();
        assert_eq!(
            split_section(f.body),
            Err(FrameError::SectionChecksumMismatch)
        );
    }

    #[test]
    fn publish_replaces_atomically_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("gcl-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        let sibling = dir.join("out.tmp");
        std::fs::write(&sibling, b"keep").unwrap();
        publish(&path, |f| f.write_all(b"one")).unwrap();
        publish(&path, |f| f.write_all(b"two")).unwrap();
        let err = publish(&path, |f| {
            f.write_all(b"half")?;
            Err::<(), _>(io::Error::other("boom"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert_eq!(std::fs::read(&sibling).unwrap(), b"keep");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2, "no temp left");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
