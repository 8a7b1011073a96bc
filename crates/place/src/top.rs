//! The few largest entries of a keyed list, kept by insertion.
//!
//! [`crate::area::RowAreaModel`] keeps its three widest rows this way and
//! [`crate::timing::StaModel`] its largest endpoint arrivals: a trial reads
//! the first entry its move leaves alone and scans exactly only when the
//! move touched them all.

/// Refill `top` with the `cap` largest `(key, id)` items in descending key
/// order. Of equal keys the earlier item comes first.
pub(crate) fn refill<K: PartialOrd + Copy, I>(
    top: &mut Vec<(K, I)>,
    cap: usize,
    items: impl IntoIterator<Item = (K, I)>,
) {
    top.clear();
    for (key, id) in items {
        let pos = top.iter().position(|&(k, _)| k < key).unwrap_or(top.len());
        if pos < cap {
            top.insert(pos, (key, id));
            top.truncate(cap);
        }
    }
}
