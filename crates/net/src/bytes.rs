//! A small in-tree replacement for the `bytes` crate's `Bytes`.
//!
//! The simulator only needs one thing from a byte container: cheap,
//! shared, immutable views so that segmenting a multi-MTU response into
//! frames ([`crate::tcp::segment_response`]) never copies the body. This
//! type provides exactly that — an `Arc<[u8]>` (or a `&'static [u8]`,
//! which is also how [`Bytes::zeroed`] bodies cost no allocation) plus an
//! `(offset, len)` window — and nothing else, keeping the build
//! hermetic: no registry access, no feature flags, no unsafe.

use core::fmt;
use core::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Length of the static zero page behind [`Bytes::zeroed`]: above the
/// largest response body any modelled application sends (20 KiB).
const ZERO_PAGE_LEN: usize = 64 * 1024;

static ZERO_PAGE: [u8; ZERO_PAGE_LEN] = [0; ZERO_PAGE_LEN];

/// A cheaply cloneable, sliceable, immutable byte buffer.
///
/// Cloning and [`slice`](Bytes::slice) are `O(1)`: both share the same
/// underlying storage. Dereferences to `&[u8]`, so all slice methods
/// (`starts_with`, indexing, iteration, …) work directly.
///
/// # Example
///
/// ```
/// use netsim::Bytes;
///
/// let body = Bytes::from(vec![1u8, 2, 3, 4, 5]);
/// let tail = body.slice(2..);
/// assert_eq!(&tail[..], &[3, 4, 5]);
/// assert_eq!(body.len(), 5); // original is untouched
/// ```
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    offset: usize,
    len: usize,
}

#[derive(Clone)]
enum Storage {
    /// Borrowed from static memory — no allocation, no refcount.
    Static(&'static [u8]),
    /// Shared heap allocation.
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer. Allocation-free.
    #[must_use]
    pub const fn new() -> Self {
        Bytes {
            storage: Storage::Static(&[]),
            offset: 0,
            len: 0,
        }
    }

    /// Wraps a static slice. Allocation-free.
    #[must_use]
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            storage: Storage::Static(bytes),
            offset: 0,
            len: bytes.len(),
        }
    }

    /// `len` zero bytes. Allocation-free up to 64 KiB: every such buffer
    /// is a view of one static zero page. A longer one (no modelled
    /// application sends one) falls back to a heap buffer.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        match ZERO_PAGE.get(..len) {
            Some(zeros) => Bytes::from_static(zeros),
            None => Bytes::from(vec![0u8; len]),
        }
    }

    /// Copies a slice into a new shared buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in this view.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view holds no bytes.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes as a plain slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        let all = match &self.storage {
            Storage::Static(s) => s,
            Storage::Shared(a) => &a[..],
        };
        &all[self.offset..self.offset + self.len]
    }

    /// A zero-copy sub-view. Shares storage with `self`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted, matching slice
    /// indexing semantics.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end, "slice start {start} beyond end {end}");
        assert!(
            end <= self.len,
            "slice end {end} beyond length {}",
            self.len
        );
        Bytes {
            storage: self.storage.clone(),
            offset: self.offset + start,
            len: end - start,
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

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            storage: Storage::Shared(Arc::from(v)),
            offset: 0,
            len,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            // Matches the bytes crate: printable ASCII shown raw.
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
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

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_static_allocate_nothing() {
        assert!(Bytes::new().is_empty());
        let b = Bytes::from_static(b"GET /");
        assert_eq!(b.len(), 5);
        assert!(b.starts_with(b"GET"));
    }

    #[test]
    fn from_vec_and_string() {
        let v = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(v, [1u8, 2, 3]);
        let s = Bytes::from(String::from("abc"));
        assert_eq!(&s[..], b"abc");
    }

    #[test]
    fn slicing_is_zero_copy_and_nested() {
        let b = Bytes::from((0u8..100).collect::<Vec<_>>());
        let mid = b.slice(10..90);
        assert_eq!(mid.len(), 80);
        assert_eq!(mid[0], 10);
        let inner = mid.slice(5..=10);
        assert_eq!(&inner[..], &[15, 16, 17, 18, 19, 20]);
        // Open-ended ranges.
        assert_eq!(b.slice(..3), [0u8, 1, 2]);
        assert_eq!(b.slice(97..).len(), 3);
        assert_eq!(b.slice(..), b);
    }

    #[test]
    fn clones_share_storage() {
        let b = Bytes::from(vec![7u8; 4096]);
        let c = b.clone();
        let (pa, pb) = (b.as_slice().as_ptr(), c.as_slice().as_ptr());
        assert_eq!(pa, pb, "clone must not copy the buffer");
        let tail = b.slice(4000..);
        assert_eq!(tail.as_slice().as_ptr(), unsafe { pa.add(4000) });
    }

    #[test]
    fn equality_across_representations() {
        let heap = Bytes::from(b"hello".to_vec());
        let stat = Bytes::from_static(b"hello");
        assert_eq!(heap, stat);
        assert_eq!(heap, b"hello".to_vec());
        assert_eq!(heap, *b"hello");
        assert_ne!(heap, Bytes::from_static(b"hellO"));
    }

    #[test]
    fn debug_renders_ascii_and_escapes() {
        let b = Bytes::from(vec![b'G', b'E', 0x00]);
        assert_eq!(format!("{b:?}"), "b\"GE\\x00\"");
    }

    #[test]
    #[should_panic(expected = "beyond length")]
    fn out_of_bounds_slice_panics() {
        let _ = Bytes::from_static(b"abc").slice(0..4);
    }

    #[test]
    fn zeroed_views_the_static_zero_page() {
        let z = Bytes::zeroed(4_000);
        assert!(matches!(z.storage, Storage::Static(_)), "no heap storage");
        assert_eq!(z.len(), 4_000);
        assert!(z.iter().all(|&b| b == 0));
        assert_eq!(
            z.as_ptr(),
            Bytes::zeroed(ZERO_PAGE_LEN).as_ptr(),
            "one shared page"
        );
        let tail = z.slice(3_990..);
        assert_eq!(tail, [0u8; 10]);
        assert_eq!(
            crate::Packet::request(
                crate::NodeId(1),
                crate::NodeId(0),
                1,
                z.slice(..crate::packet::MSS)
            )
            .leading_bytes(),
            Some([0, 0])
        );
        let big = Bytes::zeroed(ZERO_PAGE_LEN + 1);
        assert!(big.iter().all(|&b| b == 0));
        assert!(Bytes::zeroed(0).is_empty());
    }

    #[test]
    fn empty_slice_of_empty_is_fine() {
        assert!(Bytes::new().slice(0..0).is_empty());
    }
}
