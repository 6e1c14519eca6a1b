//! Hand-rolled binary wire helpers shared by the snapshot, replay-log
//! and `.repro`-bundle formats.
//!
//! The build environment is offline (no serde), so every persisted
//! artifact uses the same tiny scheme: little-endian fixed-width
//! integers, `u32`-length-prefixed byte strings, and a common envelope —
//! `magic`, `version`, payload, trailing [`checksum`] over everything
//! before the trailer. Readers are bounds-checked and fail with
//! [`SnapshotError`] instead of panicking, so a corrupted artifact
//! reports *how* it is corrupt.

use crate::error::SnapshotError;
use alpha_isa::hash::checksum;

/// Appends a byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Appends an optional `u64` as a presence byte plus the value.
pub fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

/// Wraps a payload in the common envelope: `magic`, `version`, payload,
/// [`checksum`] trailer over all preceding bytes.
pub fn seal(magic: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    put_u32(&mut out, magic);
    put_u32(&mut out, version);
    out.extend_from_slice(payload);
    let seal = checksum(&out);
    put_u64(&mut out, seal);
    out
}

/// Splits an envelope into `(version, body, trailer)` after checking its
/// length and magic; `body` is everything the trailer seals.
fn frame(magic: u32, bytes: &[u8]) -> Result<(u32, &[u8], u64), SnapshotError> {
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated);
    }
    let word =
        |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    if word(0) != magic {
        return Err(SnapshotError::BadMagic {
            expected: magic,
            actual: word(0),
        });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let mut seal = [0u8; 8];
    seal.copy_from_slice(trailer);
    Ok((word(4), body, u64::from_le_bytes(seal)))
}

/// Opens an envelope written by [`seal`] at `version`: checks the magic,
/// then the version, then the checksum trailer, and returns the payload.
/// The version goes before the seal because a file of another format
/// version may be sealed by another checksum too: it must be refused as
/// [`SnapshotError::BadVersion`], not reported as corrupt.
pub fn open(magic: u32, version: u32, bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    let (actual_version, body, trailer) = frame(magic, bytes)?;
    if actual_version != version {
        return Err(SnapshotError::BadVersion {
            version: actual_version,
        });
    }
    let actual = checksum(body);
    if actual != trailer {
        return Err(SnapshotError::ChecksumMismatch {
            expected: trailer,
            actual,
        });
    }
    Ok(&body[8..])
}

/// Opens an envelope without failing on a damaged checksum trailer:
/// checks the magic and minimum length only, and returns the version and
/// payload together with whether the trailer seal verified. Resilient
/// container readers (the persistent fragment store) use this to salvage
/// individually-sealed entries out of a file whose whole-container seal
/// no longer matches — a single flipped bit must cost one entry, not the
/// whole store.
pub fn open_lenient(magic: u32, bytes: &[u8]) -> Result<(u32, &[u8], bool), SnapshotError> {
    let (version, body, trailer) = frame(magic, bytes)?;
    Ok((version, &body[8..], checksum(body) == trailer))
}

/// A bounds-checked read cursor over an opened payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Ends a strict decode: fails with [`SnapshotError::TrailingBytes`]
    /// if any payload byte was left unread.
    pub fn finish(self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(SnapshotError::TrailingBytes { extra }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Reads an optional `u64` written by [`put_opt_u64`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.take_u64()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 42);
        put_bytes(&mut payload, b"hello");
        put_opt_u64(&mut payload, None);
        put_opt_u64(&mut payload, Some(7));
        let sealed = seal(0x1234_5678, 3, &payload);
        let body = open(0x1234_5678, 3, &sealed).unwrap();
        let mut c = Cursor::new(body);
        assert_eq!(c.take_u64().unwrap(), 42);
        assert_eq!(c.take_bytes().unwrap(), b"hello");
        assert_eq!(c.take_opt_u64().unwrap(), None);
        assert_eq!(c.take_opt_u64().unwrap(), Some(7));
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.finish(), Ok(()));
    }

    #[test]
    fn envelope_detects_corruption() {
        let sealed = seal(0xABCD, 1, b"payload");
        assert!(matches!(
            open(0xDCBA, 1, &sealed),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut flipped = sealed.clone();
        flipped[9] ^= 0x40;
        assert!(matches!(
            open(0xABCD, 1, &flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            open(0xABCD, 1, &sealed[..10]),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn version_is_checked_before_the_seal() {
        // A file from another format version whose trailer this build's
        // checksum does not reproduce is version skew, not corruption.
        let mut other = seal(0xABCD, 2, b"payload");
        let n = other.len();
        other[n - 1] ^= 0xff;
        assert_eq!(
            open(0xABCD, 3, &other),
            Err(SnapshotError::BadVersion { version: 2 })
        );
        assert!(matches!(
            open(0xABCD, 2, &other),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn lenient_open_reports_seal_state() {
        let sealed = seal(0xABCD, 2, b"payload");
        let (version, body, seal_ok) = open_lenient(0xABCD, &sealed).unwrap();
        assert_eq!((version, body, seal_ok), (2, b"payload".as_slice(), true));
        let mut flipped = sealed.clone();
        flipped[10] ^= 0x20;
        let (version, _, seal_ok) = open_lenient(0xABCD, &flipped).unwrap();
        assert_eq!((version, seal_ok), (2, false));
        assert!(matches!(
            open_lenient(0xDCBA, &sealed),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert_eq!(
            open_lenient(0xABCD, &sealed[..12]),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn cursor_rejects_overread() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert_eq!(c.take_u32(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn cursor_finish_rejects_unread_bytes() {
        let mut c = Cursor::new(&[1, 2, 3]);
        c.take_u16().unwrap();
        assert_eq!(c.finish(), Err(SnapshotError::TrailingBytes { extra: 1 }));
    }
}
