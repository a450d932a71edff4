//! Simulated-memory allocation: a bump arena per region and typed vector
//! views, so workloads can lay out real data structures in the simulated
//! physical address space.

use crate::addr::Addr;
use crate::backing::Backing;
use crate::system::{MemSystem, RemoteBackend};
use std::marker::PhantomData;
use thymesim_sim::Time;

/// A bump allocator over a contiguous span of simulated physical memory.
#[derive(Clone, Copy, Debug)]
pub struct Arena {
    base: u64,
    end: u64,
    cursor: u64,
}

impl Arena {
    pub fn new(base: Addr, size: u64) -> Arena {
        Arena {
            base: base.0,
            end: base.0 + size,
            cursor: base.0,
        }
    }

    /// Allocate `bytes` with the given power-of-two alignment.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let start = self.cursor.next_multiple_of(align);
        let end = start.checked_add(bytes).expect("arena allocation overflow");
        assert!(
            end <= self.end,
            "arena exhausted: need {bytes} B at {start:#x}, region ends at {:#x}",
            self.end
        );
        self.cursor = end;
        Addr(start)
    }

    /// Allocate a typed vector of `len` elements.
    pub fn alloc_vec<T: Scalar>(&mut self, len: u64) -> SimVec<T> {
        // Align vectors to the cache line so elements never straddle lines
        // in surprising ways and arrays are line-disjoint.
        let base = self.alloc(len * T::BYTES, 128.max(T::BYTES));
        SimVec {
            base,
            len,
            _t: PhantomData,
        }
    }

    pub fn remaining(&self) -> u64 {
        self.end - self.cursor
    }

    pub fn used(&self) -> u64 {
        self.cursor - self.base
    }
}

/// A fixed-width scalar that can live in simulated memory.
pub trait Scalar: Copy {
    const BYTES: u64;
    fn load(b: &Backing, a: Addr) -> Self;
    fn store(b: &mut Backing, a: Addr, v: Self);
}

impl Scalar for u8 {
    const BYTES: u64 = 1;
    #[inline]
    fn load(b: &Backing, a: Addr) -> u8 {
        b.read_u8(a)
    }
    #[inline]
    fn store(b: &mut Backing, a: Addr, v: u8) {
        b.write_u8(a, v);
    }
}

impl Scalar for u32 {
    const BYTES: u64 = 4;
    #[inline]
    fn load(b: &Backing, a: Addr) -> u32 {
        b.read_u32(a)
    }
    #[inline]
    fn store(b: &mut Backing, a: Addr, v: u32) {
        b.write_u32(a, v);
    }
}

impl Scalar for u64 {
    const BYTES: u64 = 8;
    #[inline]
    fn load(b: &Backing, a: Addr) -> u64 {
        b.read_u64(a)
    }
    #[inline]
    fn store(b: &mut Backing, a: Addr, v: u64) {
        b.write_u64(a, v);
    }
}

impl Scalar for f64 {
    const BYTES: u64 = 8;
    #[inline]
    fn load(b: &Backing, a: Addr) -> f64 {
        b.read_f64(a)
    }
    #[inline]
    fn store(b: &mut Backing, a: Addr, v: f64) {
        b.write_f64(a, v);
    }
}

/// A typed array in simulated memory. Element accesses go through the
/// timing model; `*_raw` variants touch only the data (for zero-time
/// initialization).
#[derive(Clone, Copy, Debug)]
pub struct SimVec<T: Scalar> {
    base: Addr,
    len: u64,
    _t: PhantomData<T>,
}

impl<T: Scalar> SimVec<T> {
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn base(&self) -> Addr {
        self.base
    }

    #[inline]
    pub fn addr(&self, i: u64) -> Addr {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base.offset(i * T::BYTES)
    }

    /// Timed element read.
    #[inline]
    pub fn get<R: RemoteBackend>(&self, sys: &mut MemSystem<R>, at: Time, i: u64) -> (T, Time) {
        let a = self.addr(i);
        let t = sys.access(at, a, false);
        (T::load(sys.backing(), a), t)
    }

    /// Timed element write.
    #[inline]
    pub fn set<R: RemoteBackend>(&self, sys: &mut MemSystem<R>, at: Time, i: u64, v: T) -> Time {
        let a = self.addr(i);
        let t = sys.access(at, a, true);
        T::store(sys.backing_mut(), a, v);
        t
    }

    /// Untimed read (initialization / verification).
    #[inline]
    pub fn get_raw<R>(&self, sys: &MemSystem<R>, i: u64) -> T
    where
        R: RemoteBackend,
    {
        T::load(sys.backing(), self.addr(i))
    }

    /// Untimed write (initialization).
    #[inline]
    pub fn set_raw<R: RemoteBackend>(&self, sys: &mut MemSystem<R>, i: u64, v: T) {
        T::store(sys.backing_mut(), self.addr(i), v);
    }
}

impl SimVec<f64> {
    /// Untimed bulk read of elements `[i, i + out.len())` — one page walk
    /// per covered page instead of one per element.
    #[inline]
    pub fn get_raw_run<R: RemoteBackend>(&self, sys: &MemSystem<R>, i: u64, out: &mut [f64]) {
        debug_assert!(i + out.len() as u64 <= self.len, "run out of bounds");
        sys.backing().read_f64s(self.addr(i), out);
    }

    /// Untimed bulk write of elements `[i, i + vals.len())`.
    #[inline]
    pub fn set_raw_run<R: RemoteBackend>(&self, sys: &mut MemSystem<R>, i: u64, vals: &[f64]) {
        debug_assert!(i + vals.len() as u64 <= self.len, "run out of bounds");
        sys.backing_mut().write_f64s(self.addr(i), vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddressMap;
    use crate::cache::CacheConfig;
    use crate::dram::{shared, DramConfig};
    use crate::system::{NoRemote, SysTiming};

    fn sys() -> MemSystem<NoRemote> {
        MemSystem::new(
            AddressMap::new(1 << 20, 1 << 20, 128),
            CacheConfig::tiny(),
            shared(DramConfig::default()),
            SysTiming::default(),
            NoRemote,
        )
    }

    #[test]
    fn arena_bumps_and_aligns() {
        let mut a = Arena::new(Addr(0), 4096);
        let x = a.alloc(10, 1);
        let y = a.alloc(10, 64);
        assert_eq!(x, Addr(0));
        assert_eq!(y, Addr(64), "second allocation must be aligned up");
        assert_eq!(a.used(), 74);
        assert_eq!(a.remaining(), 4096 - 74);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn arena_overflow_panics() {
        let mut a = Arena::new(Addr(0), 128);
        let _ = a.alloc(200, 1);
    }

    #[test]
    fn simvec_round_trips_data() {
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 1 << 20);
        let v: SimVec<f64> = arena.alloc_vec(100);
        let mut t = Time::ZERO;
        for i in 0..100 {
            t = v.set(&mut s, t, i, i as f64 * 1.5);
        }
        for i in 0..100 {
            let (x, nt) = v.get(&mut s, t, i);
            assert_eq!(x, i as f64 * 1.5);
            t = nt;
        }
    }

    #[test]
    fn simvec_elements_are_dense() {
        let mut arena = Arena::new(Addr(0), 1 << 20);
        let v: SimVec<u32> = arena.alloc_vec(64);
        assert_eq!(v.addr(0), v.base());
        assert_eq!(v.addr(1).0 - v.addr(0).0, 4);
        assert_eq!(v.base().0 % 128, 0, "vector base must be line-aligned");
    }

    #[test]
    fn raw_accessors_do_not_touch_timing() {
        let mut s = sys();
        let mut arena = Arena::new(Addr(0), 1 << 20);
        let v: SimVec<u64> = arena.alloc_vec(16);
        v.set_raw(&mut s, 3, 99);
        assert_eq!(v.get_raw(&s, 3), 99);
        assert_eq!(s.cache_stats().accesses(), 0);
        assert_eq!(s.stats.reads + s.stats.writes, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn simvec_bounds_checked_in_debug() {
        let mut arena = Arena::new(Addr(0), 1 << 20);
        let v: SimVec<u64> = arena.alloc_vec(4);
        let _ = v.addr(4);
    }
}
