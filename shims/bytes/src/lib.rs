//! API-compatible subset of the `bytes` crate: an immutable, cheaply
//! cloneable byte buffer backed by a window into an `Arc<[u8]>`. The
//! workspace builds hermetically (no registry access), so the real
//! crate is replaced by this shim.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// `data[off..off + len]`: a window, so a value decoded from the
    /// middle of a larger buffer is handed on without copying it out.
    Shared {
        data: Arc<[u8]>,
        off: usize,
        len: usize,
    },
}

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Wrap a `'static` slice with zero copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Repr::Static(bytes))
    }

    /// Copy `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_shared(Arc::from(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Copy out to an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Wrap an already-shared buffer with zero copying.
    pub fn from_shared(data: Arc<[u8]>) -> Self {
        let len = data.len();
        Bytes::from_shared_window(data, 0, len)
    }

    /// Wrap `data[off..off + len]` with zero copying; the window keeps
    /// the whole of `data` alive.
    ///
    /// # Panics
    ///
    /// Panics when `off + len` overruns `data`.
    pub fn from_shared_window(data: Arc<[u8]>, off: usize, len: usize) -> Self {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= data.len()),
            "Bytes window {off}+{len} overruns backing of {}",
            data.len()
        );
        Bytes(Repr::Shared { data, off, len })
    }

    /// The shared backing of this buffer and the window within it.
    /// Zero-copy for shared buffers (the common case); a `'static`
    /// slice pays a one-time copy into a fresh allocation.
    pub fn into_shared_window(self) -> (Arc<[u8]>, usize, usize) {
        match self.0 {
            Repr::Static(s) => (Arc::from(s), 0, s.len()),
            Repr::Shared { data, off, len } => (data, off, len),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared { data, off, len } => &data[*off..*off + *len],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_shared(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if self.len() > 64 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"xyz").len(), 3);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clone_is_shallow() {
        let a = Bytes::from(vec![0u8; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn shared_round_trip_preserves_the_allocation() {
        let arc: Arc<[u8]> = Arc::from(vec![7u8; 16]);
        let b = Bytes::from_shared(Arc::clone(&arc));
        let (back, off, len) = b.into_shared_window();
        assert!(Arc::ptr_eq(&arc, &back), "no copy on the shared path");
        assert_eq!((off, len), (0, 16));
        // A static buffer converts by copying once.
        let (s, off, len) = Bytes::from_static(b"abc").into_shared_window();
        assert_eq!(&s[off..off + len], b"abc");
    }

    #[test]
    fn window_views_part_of_the_backing_without_copying() {
        let arc: Arc<[u8]> = Arc::from(vec![0u8, 1, 2, 3, 4, 5]);
        let w = Bytes::from_shared_window(Arc::clone(&arc), 2, 3);
        assert_eq!(&w[..], &[2, 3, 4]);
        assert_eq!(w, Bytes::copy_from_slice(&[2, 3, 4]));
        let (back, off, len) = w.into_shared_window();
        assert!(Arc::ptr_eq(&arc, &back));
        assert_eq!((off, len), (2, 3));
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn overrunning_window_panics() {
        let _ = Bytes::from_shared_window(Arc::from(vec![0u8; 4]), 3, 2);
    }
}
