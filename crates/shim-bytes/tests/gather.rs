//! Property tests of [`Gather`]: consecutive slices of one buffer, pushed
//! in order, join into a view of that buffer; every other sequence of
//! pieces (shuffled, with a gap, from a second allocation, with empty
//! pieces) joins into exactly their concatenation.

use bytes::{Bytes, Gather};
use proptest::prelude::*;

fn message(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
}

/// `whole` cut at `cuts` (each taken modulo its length, then sorted):
/// consecutive slices that cover it in order, empty ones included.
fn cut(whole: &Bytes, cuts: &[usize]) -> Vec<Bytes> {
    let mut ends: Vec<usize> = cuts.iter().map(|c| c % (whole.len() + 1)).collect();
    ends.sort_unstable();
    ends.push(whole.len());
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let piece = whole.slice(start..end);
            start = end;
            piece
        })
        .collect()
}

/// Fisher–Yates over `pieces`, drawing each swap from `draws`.
fn shuffle(pieces: &mut [Bytes], draws: &[usize]) {
    for i in (1..pieces.len()).rev() {
        let j = draws.get(i).copied().unwrap_or(i) % (i + 1);
        pieces.swap(i, j);
    }
}

fn join(pieces: &[Bytes]) -> Bytes {
    let total = pieces.iter().map(Bytes::len).sum();
    let mut joined = Gather::new(total);
    for piece in pieces {
        joined.push(piece.clone());
    }
    assert_eq!(joined.len(), total);
    joined.finish()
}

proptest! {
    /// In-order slices of any range of a buffer, cut anywhere (empty
    /// pieces included), join into that range as a view: same bytes,
    /// same address.
    #[test]
    fn in_order_slices_of_one_buffer_join_into_a_view(
        len in 1usize..20_000,
        from in any::<usize>(),
        to in any::<usize>(),
        cuts in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let m = message(len);
        let (a, b) = (from % (len + 1), to % (len + 1));
        let (a, b) = (a.min(b), a.max(b));
        let out = join(&cut(&m.slice(a..b), &cuts));
        prop_assert_eq!(&out[..], &m[a..b]);
        if a < b {
            prop_assert_eq!(out.as_ptr(), m[a..].as_ptr());
        }
    }

    /// Pieces shuffled, with one left out, with a piece of a second
    /// allocation put in, or all three, join into their concatenation.
    #[test]
    fn any_other_sequence_joins_into_the_concatenation(
        len in 1usize..20_000,
        cuts in proptest::collection::vec(any::<usize>(), 1..40),
        draws in proptest::collection::vec(any::<usize>(), 0..40),
        gap in any::<usize>(),
        foreign in proptest::collection::vec(any::<u8>(), 0..3_000),
        at in any::<usize>(),
        mode in 0u8..4,
    ) {
        let m = message(len);
        let mut pieces = cut(&m, &cuts);
        if mode == 0 || mode == 3 {
            shuffle(&mut pieces, &draws);
        }
        if mode == 1 || mode == 3 {
            pieces.remove(gap % pieces.len());
        }
        if mode == 2 || mode == 3 {
            pieces.insert(at % (pieces.len() + 1), Bytes::from(foreign));
        }
        let want: Vec<u8> = pieces.iter().flat_map(|p| p.iter().copied()).collect();
        prop_assert_eq!(&join(&pieces)[..], &want[..]);
    }
}
