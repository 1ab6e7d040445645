//! The sequence one read returned, shared from the service that served it
//! to the trace that records it.
//!
//! A read returns a sequence of events (§III), and nothing downstream
//! changes it: the agent logs it, the coordinator merges the logs, the
//! checkers probe it. A replica caches its ordered snapshot, so every read
//! between two writes returns the same sequence. [`ReadView`] is that
//! sequence as one reference-counted slice: handing a read on clones a
//! pointer, not its ids.
//!
//! The ownership rule is one allocation per distinct view. A view made
//! from a replica's cached `Arc` slice costs nothing; a read path that
//! builds a fresh sequence (a ranking, a merge, a filtered index) collects
//! it straight into a view, which for an iterator of known length is one
//! allocation. A view decoded from JSON is one allocation per read.

use conprobe_json::{FromJson, JsonError, JsonReader, JsonWriter, ToJson};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The events one read returned, in the order the service presented them:
/// an immutable slice that clones by reference count.
#[derive(Clone, PartialEq, Eq)]
pub struct ReadView<K>(Arc<[K]>);

impl<K> ReadView<K> {
    /// The events, as a slice.
    pub fn as_slice(&self) -> &[K] {
        &self.0
    }
}

impl<K> Deref for ReadView<K> {
    type Target = [K];

    fn deref(&self) -> &[K] {
        &self.0
    }
}

impl<K> Default for ReadView<K> {
    fn default() -> Self {
        ReadView(Arc::default())
    }
}

/// Prints as the slice does, so a view reads like the `Vec` it replaced.
impl<K: fmt::Debug> fmt::Debug for ReadView<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Shares the slice: no copy.
impl<K> From<Arc<[K]>> for ReadView<K> {
    fn from(ids: Arc<[K]>) -> Self {
        ReadView(ids)
    }
}

/// Moves the elements into a new shared slice (one allocation).
impl<K> From<Vec<K>> for ReadView<K> {
    fn from(ids: Vec<K>) -> Self {
        ReadView(ids.into())
    }
}

/// Copies the elements into a new shared slice (one allocation).
impl<K: Clone> From<&[K]> for ReadView<K> {
    fn from(ids: &[K]) -> Self {
        ReadView(ids.into())
    }
}

impl<K> FromIterator<K> for ReadView<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        ReadView(iter.into_iter().collect())
    }
}

/// Yields the events by value (cloned out of the shared slice; a view
/// cannot give up elements another holder may still read).
impl<K: Clone> IntoIterator for ReadView<K> {
    type Item = K;
    type IntoIter = IntoIter<K>;

    fn into_iter(self) -> IntoIter<K> {
        IntoIter { view: self.0, next: 0 }
    }
}

impl<'a, K> IntoIterator for &'a ReadView<K> {
    type Item = &'a K;
    type IntoIter = std::slice::Iter<'a, K>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The by-value iterator of a [`ReadView`].
#[derive(Debug, Clone)]
pub struct IntoIter<K> {
    view: Arc<[K]>,
    next: usize,
}

impl<K: Clone> Iterator for IntoIter<K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        let item = self.view.get(self.next)?.clone();
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.view.len() - self.next;
        (left, Some(left))
    }
}

impl<K: Clone> ExactSizeIterator for IntoIter<K> {}

impl<K: PartialEq> PartialEq<Vec<K>> for ReadView<K> {
    fn eq(&self, other: &Vec<K>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<K: PartialEq, const N: usize> PartialEq<[K; N]> for ReadView<K> {
    fn eq(&self, other: &[K; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// The same JSON array a `Vec` writes.
impl<K: ToJson> ToJson for ReadView<K> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

/// Decodes the read views of one trace, one allocation per view: a view's
/// elements are read into a scratch buffer whose capacity is kept from view
/// to view, and the view is one copy of it.
#[derive(Debug)]
pub(crate) struct ViewDecoder<K> {
    elements: Vec<K>,
}

impl<K> Default for ViewDecoder<K> {
    fn default() -> Self {
        ViewDecoder { elements: Vec::new() }
    }
}

impl<K: FromJson + Clone> ViewDecoder<K> {
    /// Reads one JSON array of events as a view.
    ///
    /// # Errors
    ///
    /// The [`JsonError`] of the first element that does not read.
    pub(crate) fn read(&mut self, r: &mut JsonReader<'_>) -> Result<ReadView<K>, JsonError> {
        self.elements.clear();
        r.begin_array()?;
        while r.next_element()? {
            self.elements.push(K::read_json(r)?);
        }
        Ok(ReadView(self.elements.as_slice().into()))
    }
}

impl<K: FromJson + Clone> FromJson for ReadView<K> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        ViewDecoder::default().read(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_view_from_a_shared_slice_shares_it() {
        let ids: Arc<[u32]> = Arc::from([3, 1, 2]);
        let view = ReadView::from(Arc::clone(&ids));
        assert!(std::ptr::eq(view.as_slice(), &*ids), "no copy");
        let copy = view.clone();
        assert!(std::ptr::eq(copy.as_slice(), &*ids), "a clone shares too");
    }

    #[test]
    fn a_view_iterates_by_value_and_by_reference() {
        let view: ReadView<u32> = (1..=3).collect();
        assert_eq!(view.iter().sum::<u32>(), 6);
        assert_eq!((&view).into_iter().count(), 3);
        let by_value = view.clone().into_iter();
        assert_eq!(by_value.len(), 3);
        assert_eq!(by_value.map(u64::from).collect::<Vec<u64>>(), [1, 2, 3]);
        assert_eq!(view, [1, 2, 3], "iterating by value took nothing from the view");
    }

    #[test]
    fn a_view_compares_prints_and_encodes_like_the_vec_it_holds() {
        let ids = vec![5u32, 4];
        let view = ReadView::from(ids.clone());
        assert_eq!(view, ids);
        assert_eq!(format!("{view:?}"), format!("{ids:?}"));
        assert_eq!(view.to_compact(), ids.to_compact());
        let back = ReadView::<u32>::from_json_str("[5,4]").unwrap();
        assert_eq!(back, view);
        assert!(ReadView::<u32>::default().is_empty());
    }

    #[test]
    fn a_view_decoder_reads_each_view_into_its_own_copy() {
        let mut views = ViewDecoder::<u32>::default();
        let mut read = |text: &str| views.read(&mut JsonReader::new(text));
        let first = read("[1,2]").unwrap();
        let again = read(" [ 1 , 2 ] ").unwrap();
        assert_eq!(first, again);
        assert!(!std::ptr::eq(first.as_slice(), again.as_slice()), "a copy each");
        assert_eq!(read("[2]").unwrap(), [2]);
        assert!(read("[]").unwrap().is_empty());
        // An element that does not read is the error, at its offset.
        assert_eq!(read("[1,-1]").unwrap_err().offset, Some(3));
        assert_eq!(read("[1,2] ").unwrap(), [1, 2], "the decoder still works after an error");
    }
}
