//! The one chunk-splitting loop: every layer that cuts a byte span at
//! chunk boundaries (the mount's span loop, `NvmVec`'s per-segment yields,
//! the store tests' span helpers) iterates this.

/// One granule-aligned piece of a byte span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Granule (chunk) index the piece falls in.
    pub idx: usize,
    /// Byte offset of the piece within that granule.
    pub within: usize,
    /// Length of the piece.
    pub take: usize,
    /// Offset of the piece within the caller's buffer.
    pub pos: usize,
}

/// Allocation-free iterator over the pieces of `[offset, offset + len)`;
/// see [`segments`].
#[derive(Clone, Debug)]
pub struct Segments {
    offset: u64,
    len: u64,
    pos: u64,
    granule: u64,
}

/// Split `[offset, offset + len)` at multiples of `granule` (the chunk
/// size; `u64::MAX` yields the whole span as one piece).
pub fn segments(offset: u64, len: u64, granule: u64) -> Segments {
    assert!(granule > 0, "zero segment granule");
    Segments {
        offset,
        len,
        pos: 0,
        granule,
    }
}

impl Iterator for Segments {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.pos >= self.len {
            return None;
        }
        let abs = self.offset + self.pos;
        let within = abs % self.granule;
        let take = (self.granule - within).min(self.len - self.pos);
        let seg = Segment {
            idx: (abs / self.granule) as usize,
            within: within as usize,
            take: take as usize,
            pos: self.pos as usize,
        };
        self.pos += take;
        Some(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_at_chunk_boundaries() {
        let got: Vec<Segment> = segments(6, 10, 4).collect();
        let want = [(1, 2, 2, 0), (2, 0, 4, 2), (3, 0, 4, 6)];
        assert_eq!(got.len(), want.len());
        for (s, (idx, within, take, pos)) in got.iter().zip(want) {
            assert_eq!((s.idx, s.within, s.take, s.pos), (idx, within, take, pos));
        }
    }

    #[test]
    fn empty_span_and_whole_span_granule() {
        assert_eq!(segments(5, 0, 4).count(), 0);
        let whole: Vec<Segment> = segments(5, 1000, u64::MAX).collect();
        assert_eq!(whole.len(), 1);
        assert_eq!((whole[0].within, whole[0].take, whole[0].pos), (5, 1000, 0));
    }
}
