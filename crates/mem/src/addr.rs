//! Physical addresses, cache-line math, and the local/remote address map.
//!
//! ThymesisFlow hot-plugs the lender's reserved memory into the borrower's
//! physical address space at a fixed base; any cache miss above that base
//! is steered to the NIC instead of the local memory controller. We keep
//! the same single-flat-space model.

use std::fmt;

/// A simulated physical address on the borrower node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

/// Which memory a physical address resolves to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// Borrower-local DRAM.
    Local,
    /// Disaggregated memory at the lender, reached through the NIC.
    Remote,
}

/// The borrower's physical memory layout.
#[derive(Clone, Copy, Debug)]
pub struct AddressMap {
    /// Bytes of borrower-local DRAM, mapped at `[0, local_size)`.
    pub local_size: u64,
    /// Base of the hot-plugged remote window.
    pub remote_base: u64,
    /// Bytes of remote memory mapped at `[remote_base, remote_base + remote_size)`.
    pub remote_size: u64,
    /// Cache-line size in bytes (128 on POWER9).
    pub line: u64,
}

impl AddressMap {
    pub fn new(local_size: u64, remote_size: u64, line: u64) -> AddressMap {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        // Leave a guard gap so off-by-one overruns fault loudly.
        let remote_base = (local_size + (1 << 30)).next_multiple_of(line);
        AddressMap {
            local_size,
            remote_base,
            remote_size,
            line,
        }
    }

    #[inline]
    pub fn region(&self, a: Addr) -> Region {
        if a.0 < self.local_size {
            Region::Local
        } else if a.0 >= self.remote_base && a.0 < self.remote_base + self.remote_size {
            Region::Remote
        } else {
            panic!("address {a:?} outside mapped memory");
        }
    }

    /// Address of the cache line containing `a`.
    #[inline]
    pub fn line_of(&self, a: Addr) -> Addr {
        Addr(a.0 & !(self.line - 1))
    }

    pub fn remote_base_addr(&self) -> Addr {
        Addr(self.remote_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(1 << 20, 1 << 20, 128)
    }

    #[test]
    fn regions_resolve() {
        let m = map();
        assert_eq!(m.region(Addr(0)), Region::Local);
        assert_eq!(m.region(Addr((1 << 20) - 1)), Region::Local);
        assert_eq!(m.region(m.remote_base_addr()), Region::Remote);
        assert_eq!(
            m.region(Addr(m.remote_base + (1 << 20) - 1)),
            Region::Remote
        );
    }

    #[test]
    #[should_panic(expected = "outside mapped memory")]
    fn gap_addresses_panic() {
        let m = map();
        let _ = m.region(Addr(1 << 20)); // in the guard gap
    }

    #[test]
    fn line_of_masks_low_bits() {
        let m = map();
        assert_eq!(m.line_of(Addr(0)), Addr(0));
        assert_eq!(m.line_of(Addr(127)), Addr(0));
        assert_eq!(m.line_of(Addr(128)), Addr(128));
        assert_eq!(m.line_of(Addr(130)), Addr(128));
    }

    #[test]
    fn remote_base_is_line_aligned_with_guard() {
        let m = map();
        assert_eq!(m.remote_base % 128, 0);
        assert!(m.remote_base >= m.local_size + (1 << 30));
    }
}
