//! NIC address translation.
//!
//! "Address translation is implemented to convert addresses at the
//! borrower node to corresponding addresses at the lender node" (§II-A).
//! The borrower's hot-plugged window may be stitched from several
//! reservations on the lender, so the table maps borrower-physical
//! segments to lender-physical bases.

use thymesim_mem::Addr;

/// One mapped segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Borrower-physical base of the segment.
    pub borrower_base: u64,
    /// Lender-physical base it maps to.
    pub lender_base: u64,
    /// Segment length in bytes.
    pub len: u64,
}

/// Translation failure: the address is not covered by any segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationFault(pub Addr);

/// The NIC's translation table (sorted, non-overlapping segments).
#[derive(Clone, Debug, Default)]
pub struct XlateTable {
    segments: Vec<Segment>,
}

impl XlateTable {
    pub fn new() -> XlateTable {
        XlateTable::default()
    }

    /// Insert a segment; panics on overlap with an existing one (the
    /// control plane must never double-map).
    pub fn map(&mut self, seg: Segment) {
        assert!(seg.len > 0, "empty segment");
        let end = seg
            .borrower_base
            .checked_add(seg.len)
            .expect("segment wraps");
        for s in &self.segments {
            let s_end = s.borrower_base + s.len;
            assert!(
                end <= s.borrower_base || seg.borrower_base >= s_end,
                "overlapping mapping: {seg:?} vs {s:?}"
            );
        }
        self.segments.push(seg);
        self.segments.sort_by_key(|s| s.borrower_base);
    }

    /// Remove the segment starting at `borrower_base`; true if found.
    pub fn unmap(&mut self, borrower_base: u64) -> bool {
        let before = self.segments.len();
        self.segments.retain(|s| s.borrower_base != borrower_base);
        self.segments.len() != before
    }

    /// Translate a borrower-physical address to lender-physical.
    pub fn translate(&self, a: Addr) -> Result<u64, TranslationFault> {
        // Binary search over sorted segment bases.
        let idx = self.segments.partition_point(|s| s.borrower_base <= a.0);
        if idx == 0 {
            return Err(TranslationFault(a));
        }
        let s = &self.segments[idx - 1];
        if a.0 < s.borrower_base + s.len {
            Ok(s.lender_base + (a.0 - s.borrower_base))
        } else {
            Err(TranslationFault(a))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_segment_translates() {
        let mut t = XlateTable::new();
        t.map(Segment {
            borrower_base: 0x1000_0000,
            lender_base: 0x8000,
            len: 0x1000,
        });
        assert_eq!(t.translate(Addr(0x1000_0000)), Ok(0x8000));
        assert_eq!(t.translate(Addr(0x1000_0FFF)), Ok(0x8FFF));
        assert_eq!(
            t.translate(Addr(0x1000_1000)),
            Err(TranslationFault(Addr(0x1000_1000)))
        );
        assert_eq!(
            t.translate(Addr(0xFFF_FFFF)),
            Err(TranslationFault(Addr(0xFFF_FFFF)))
        );
    }

    #[test]
    fn multiple_segments_stitch() {
        let mut t = XlateTable::new();
        t.map(Segment {
            borrower_base: 0,
            lender_base: 1 << 30,
            len: 4096,
        });
        t.map(Segment {
            borrower_base: 4096,
            lender_base: 1 << 20,
            len: 4096,
        });
        assert_eq!(t.translate(Addr(100)), Ok((1 << 30) + 100));
        assert_eq!(t.translate(Addr(5000)), Ok((1 << 20) + 904));
    }

    #[test]
    #[should_panic(expected = "overlapping mapping")]
    fn overlap_rejected() {
        let mut t = XlateTable::new();
        t.map(Segment {
            borrower_base: 0,
            lender_base: 0,
            len: 8192,
        });
        t.map(Segment {
            borrower_base: 4096,
            lender_base: 1 << 20,
            len: 4096,
        });
    }

    #[test]
    fn unmap_removes_translation() {
        let mut t = XlateTable::new();
        t.map(Segment {
            borrower_base: 0,
            lender_base: 0,
            len: 4096,
        });
        assert!(t.unmap(0));
        assert!(!t.unmap(0));
        assert!(t.translate(Addr(0)).is_err());
    }

    proptest! {
        /// Translation is a bijection on mapped ranges: distinct borrower
        /// addresses map to distinct lender addresses within a segment.
        #[test]
        fn prop_translation_is_offset_preserving(
            base in 0u64..1 << 40,
            lbase in 0u64..1 << 40,
            len in 1u64..1 << 20,
            off1 in 0u64..1 << 20,
            off2 in 0u64..1 << 20,
        ) {
            prop_assume!(off1 < len && off2 < len && off1 != off2);
            let mut t = XlateTable::new();
            t.map(Segment { borrower_base: base, lender_base: lbase, len });
            let a = t.translate(Addr(base + off1)).unwrap();
            let b = t.translate(Addr(base + off2)).unwrap();
            prop_assert_ne!(a, b);
            prop_assert_eq!(a - lbase, off1);
            prop_assert_eq!(b - lbase, off2);
        }
    }
}
