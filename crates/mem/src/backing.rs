//! Byte-addressable backing store for the simulated physical memory.
//!
//! Workloads run *for real*: STREAM moves actual `f64`s, BFS chases actual
//! adjacency lists. The backing store holds those bytes, while all timing
//! flows through the cache/DRAM/fabric models. Pages are allocated lazily
//! so a sparsely touched multi-GiB address space costs only what is used.
//!
//! # Hot-path layout
//!
//! Every timed access ends in a page lookup here, so the store keeps two
//! tiers:
//!
//! - **Dense ranges** (registered via [`Backing::with_ranges`], typically
//!   the local and remote regions of an `AddressMap`): a flat
//!   `Vec<Option<Box<Page>>>` indexed by `page - start`, i.e. one
//!   subtraction and a bounds check instead of a hash probe.
//! - **Overflow map** for anything outside the registered ranges, hashed
//!   with a Fx-style multiply hash — `u64` page numbers don't need SipHash
//!   (no attacker-controlled keys in a simulator), and the default hasher
//!   dominated the access path before this split.
//!
//! Both tiers hold the same kind of lazily allocated 64 KiB pages;
//! unallocated memory reads as zero either way.

use crate::addr::Addr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 16; // 64 KiB pages
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

type Page = [u8; PAGE_SIZE];

fn new_page() -> Box<Page> {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("sized above")
}

/// Fx-style multiply hasher for `u64` page numbers: a rotate-xor-multiply
/// per word, no per-hash setup. Not DoS-resistant — irrelevant here, the
/// keys are simulated physical page numbers.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// A contiguous page span backed by a flat vector.
struct DenseRange {
    start_page: u64,
    pages: Vec<Option<Box<Page>>>,
}

/// Sparse, lazily allocated byte store over the full simulated address
/// space (local and remote regions alike — the *data* is the same bytes
/// wherever it physically lives; only the timing differs).
#[derive(Default)]
pub struct Backing {
    ranges: Vec<DenseRange>,
    overflow: HashMap<u64, Box<Page>, FxBuild>,
}

impl Backing {
    pub fn new() -> Backing {
        Backing::default()
    }

    /// A store with dense page tables over the given `(start, len)` byte
    /// ranges (typically the local and remote regions of an address map).
    /// Addresses inside a range resolve with one subtraction; everything
    /// else falls back to the overflow map.
    pub fn with_ranges(ranges: &[(u64, u64)]) -> Backing {
        let mut b = Backing::new();
        for &(start, len) in ranges {
            if len == 0 {
                continue;
            }
            let start_page = start >> PAGE_SHIFT;
            let end_page = (start + len - 1) >> PAGE_SHIFT;
            let n = (end_page - start_page + 1) as usize;
            b.ranges.push(DenseRange {
                start_page,
                pages: std::iter::repeat_with(|| None).take(n).collect(),
            });
        }
        b
    }

    #[inline]
    fn page(&self, page: u64) -> Option<&Page> {
        for r in &self.ranges {
            let idx = page.wrapping_sub(r.start_page);
            if (idx as usize) < r.pages.len() {
                return r.pages[idx as usize].as_deref();
            }
        }
        self.overflow.get(&page).map(|p| &**p)
    }

    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut Page {
        for r in &mut self.ranges {
            let idx = page.wrapping_sub(r.start_page);
            if (idx as usize) < r.pages.len() {
                return r.pages[idx as usize].get_or_insert_with(new_page);
            }
        }
        self.overflow.entry(page).or_insert_with(new_page)
    }

    /// Read `N` bytes; unallocated memory reads as zero.
    #[inline]
    pub fn read<const N: usize>(&self, a: Addr) -> [u8; N] {
        debug_assert!(
            N <= 16 && (a.0 as usize).is_multiple_of(N),
            "unaligned scalar access"
        );
        let off = (a.0 as usize) & (PAGE_SIZE - 1);
        match self.page(a.0 >> PAGE_SHIFT) {
            Some(p) => {
                let mut out = [0u8; N];
                out.copy_from_slice(&p[off..off + N]);
                out
            }
            None => [0u8; N],
        }
    }

    /// Write `N` bytes, allocating the page on first touch.
    #[inline]
    pub fn write<const N: usize>(&mut self, a: Addr, bytes: [u8; N]) {
        debug_assert!(
            N <= 16 && (a.0 as usize).is_multiple_of(N),
            "unaligned scalar access"
        );
        let off = (a.0 as usize) & (PAGE_SIZE - 1);
        self.page_mut(a.0 >> PAGE_SHIFT)[off..off + N].copy_from_slice(&bytes);
    }

    #[inline]
    pub fn read_u8(&self, a: Addr) -> u8 {
        self.read::<1>(a)[0]
    }
    #[inline]
    pub fn write_u8(&mut self, a: Addr, v: u8) {
        self.write::<1>(a, [v]);
    }
    #[inline]
    pub fn read_u32(&self, a: Addr) -> u32 {
        u32::from_le_bytes(self.read::<4>(a))
    }
    #[inline]
    pub fn write_u32(&mut self, a: Addr, v: u32) {
        self.write::<4>(a, v.to_le_bytes());
    }
    #[inline]
    pub fn read_u64(&self, a: Addr) -> u64 {
        u64::from_le_bytes(self.read::<8>(a))
    }
    #[inline]
    pub fn write_u64(&mut self, a: Addr, v: u64) {
        self.write::<8>(a, v.to_le_bytes());
    }
    #[inline]
    pub fn read_f64(&self, a: Addr) -> f64 {
        f64::from_le_bytes(self.read::<8>(a))
    }
    #[inline]
    pub fn write_f64(&mut self, a: Addr, v: f64) {
        self.write::<8>(a, v.to_le_bytes());
    }

    /// Bulk copy into the store (bypasses scalar alignment checks).
    pub fn write_bytes(&mut self, a: Addr, bytes: &[u8]) {
        let mut addr = a.0;
        let mut rest = bytes;
        while !rest.is_empty() {
            let page = addr >> PAGE_SHIFT;
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(page)[off..off + n].copy_from_slice(&rest[..n]);
            addr += n as u64;
            rest = &rest[n..];
        }
    }

    /// Bulk read from the store.
    pub fn read_bytes(&self, a: Addr, out: &mut [u8]) {
        let mut addr = a.0;
        let mut rest: &mut [u8] = out;
        while !rest.is_empty() {
            let page = addr >> PAGE_SHIFT;
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - off);
            match self.page(page) {
                Some(p) => rest[..n].copy_from_slice(&p[off..off + n]),
                None => rest[..n].fill(0),
            }
            addr += n as u64;
            rest = &mut rest[n..];
        }
    }

    /// Borrow `n` bytes at `a` in place, or `None` where the page was
    /// never written (it reads as zeros). The span must not cross a
    /// 64 KiB page: a 128-byte-aligned line never does.
    #[inline]
    pub fn bytes(&self, a: Addr, n: usize) -> Option<&[u8]> {
        let off = (a.0 as usize) & (PAGE_SIZE - 1);
        debug_assert!(off + n <= PAGE_SIZE, "span crosses a page");
        self.page(a.0 >> PAGE_SHIFT).map(|p| &p[off..off + n])
    }

    /// Read a run of consecutive `f64`s; unallocated memory reads as
    /// zero. One page walk per covered page instead of one per element —
    /// the data-op half of a bulk-stalled STREAM line-step.
    pub fn read_f64s(&self, a: Addr, out: &mut [f64]) {
        debug_assert!((a.0 as usize).is_multiple_of(8), "unaligned f64 run");
        let mut addr = a.0;
        let mut rest: &mut [f64] = out;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min((PAGE_SIZE - off) / 8);
            match self.page(addr >> PAGE_SHIFT) {
                Some(p) => {
                    for (d, ch) in rest[..n]
                        .iter_mut()
                        .zip(p[off..off + n * 8].chunks_exact(8))
                    {
                        *d = f64::from_le_bytes(ch.try_into().expect("8-byte chunk"));
                    }
                }
                None => rest[..n].fill(0.0),
            }
            addr += (n * 8) as u64;
            rest = &mut rest[n..];
        }
    }

    /// Write a run of consecutive `f64`s, allocating pages on first touch.
    pub fn write_f64s(&mut self, a: Addr, vals: &[f64]) {
        debug_assert!((a.0 as usize).is_multiple_of(8), "unaligned f64 run");
        let mut addr = a.0;
        let mut rest = vals;
        while !rest.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = rest.len().min((PAGE_SIZE - off) / 8);
            let p = self.page_mut(addr >> PAGE_SHIFT);
            for (ch, v) in p[off..off + n * 8].chunks_exact_mut(8).zip(&rest[..n]) {
                ch.copy_from_slice(&v.to_le_bytes());
            }
            addr += (n * 8) as u64;
            rest = &rest[n..];
        }
    }

    /// Host memory currently committed, in bytes.
    pub fn resident_bytes(&self) -> usize {
        let dense: usize = self
            .ranges
            .iter()
            .map(|r| r.pages.iter().filter(|p| p.is_some()).count())
            .sum();
        (dense + self.overflow.len()) * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut b = Backing::new();
        b.write_u64(Addr(0x1000), 0xDEAD_BEEF_1234_5678);
        assert_eq!(b.read_u64(Addr(0x1000)), 0xDEAD_BEEF_1234_5678);
        b.write_f64(Addr(0x2000), -3.5);
        assert_eq!(b.read_f64(Addr(0x2000)), -3.5);
        b.write_u32(Addr(0x3000), 77);
        assert_eq!(b.read_u32(Addr(0x3000)), 77);
        b.write_u8(Addr(0x3004), 9);
        assert_eq!(b.read_u8(Addr(0x3004)), 9);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let b = Backing::new();
        assert_eq!(b.read_u64(Addr(0xFFFF_0000)), 0);
        assert_eq!(b.resident_bytes(), 0);
    }

    #[test]
    fn pages_allocate_lazily() {
        let mut b = Backing::new();
        b.write_u8(Addr(0), 1);
        assert_eq!(b.resident_bytes(), PAGE_SIZE);
        b.write_u8(Addr(1), 1); // same page
        assert_eq!(b.resident_bytes(), PAGE_SIZE);
        b.write_u8(Addr((PAGE_SIZE as u64) * 10), 1);
        assert_eq!(b.resident_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn bulk_ops_cross_page_boundaries() {
        let mut b = Backing::new();
        let base = Addr((PAGE_SIZE - 8) as u64);
        let data: Vec<u8> = (0..32u8).collect();
        b.write_bytes(base, &data);
        let mut out = vec![0u8; 32];
        b.read_bytes(base, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn distant_addresses_do_not_alias() {
        let mut b = Backing::new();
        b.write_u64(Addr(0), 1);
        b.write_u64(Addr(1 << 40), 2);
        assert_eq!(b.read_u64(Addr(0)), 1);
        assert_eq!(b.read_u64(Addr(1 << 40)), 2);
    }

    #[test]
    fn dense_ranges_behave_like_sparse() {
        // Same traffic against a ranged store and a plain one: identical
        // bytes and identical residency accounting.
        let ranges = [(0u64, 1 << 20), (1 << 40, 1 << 20)];
        let mut dense = Backing::with_ranges(&ranges);
        let mut sparse = Backing::new();
        let probe = [
            Addr(0),
            Addr(8),
            Addr((1 << 20) - 8),      // last page of range 0
            Addr(1 << 40),            // first page of range 1
            Addr((1 << 40) + 0x8000), // inside range 1
            Addr(1 << 50),            // overflow territory
        ];
        for (i, &a) in probe.iter().enumerate() {
            dense.write_u64(a, i as u64 * 31 + 7);
            sparse.write_u64(a, i as u64 * 31 + 7);
        }
        for &a in &probe {
            assert_eq!(dense.read_u64(a), sparse.read_u64(a), "at {a:?}");
        }
        assert_eq!(dense.resident_bytes(), sparse.resident_bytes());
        // Unallocated reads are zero in both tiers.
        assert_eq!(dense.read_u64(Addr(0x10000)), 0);
        assert_eq!(dense.read_u64(Addr(1 << 45)), 0);
    }

    #[test]
    fn dense_range_boundary_spill() {
        // Bulk writes crossing out of a dense range land in overflow and
        // read back seamlessly.
        let mut b = Backing::with_ranges(&[(0, PAGE_SIZE as u64)]);
        let base = Addr((PAGE_SIZE - 8) as u64);
        let data: Vec<u8> = (0..32u8).collect();
        b.write_bytes(base, &data);
        let mut out = vec![0u8; 32];
        b.read_bytes(base, &mut out);
        assert_eq!(out, data);
        assert_eq!(b.resident_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn in_page_view_borrows_the_bytes() {
        let mut b = Backing::with_ranges(&[(0, 4 * PAGE_SIZE as u64)]);
        let line = Addr(PAGE_SIZE as u64 - 128);
        assert_eq!(b.bytes(line, 128), None, "unwritten page has no view");
        b.write_bytes(line, &[7u8; 128]);
        assert_eq!(b.bytes(line, 128), Some(&[7u8; 128][..]));
        assert_eq!(b.resident_bytes(), PAGE_SIZE);
        // Outside the dense range the overflow tier serves the same view.
        b.write_u8(Addr((1 << 40) + 3), 9);
        assert_eq!(
            b.bytes(Addr(1 << 40), 8),
            Some(&[0, 0, 0, 9, 0, 0, 0, 0][..])
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unaligned")]
    fn unaligned_scalar_asserts_in_debug() {
        let b = Backing::new();
        let _ = b.read_u64(Addr(3));
    }
}
