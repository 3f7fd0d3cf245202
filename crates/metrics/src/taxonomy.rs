//! CPU usage taxonomy — paper Table 1.
//!
//! Every cycle a simulated core spends is charged to exactly one of these
//! eight categories. The mapping follows the paper:
//!
//! | Category | Description (from Table 1) |
//! |---|---|
//! | Data copy | From user space to kernel space, and vice versa |
//! | TCP/IP | All packet processing at TCP/IP layers |
//! | Netdevice subsystem | Netdevice and NIC driver operations (NAPI polling, GSO/GRO, qdisc, …) |
//! | skb management | Functions to build, split and release skbs |
//! | Memory | skb de-/allocation and page-pool related operations |
//! | Lock/unlock | Lock-related operations (e.g. spin locks) |
//! | Scheduling | Scheduling / context switching among threads |
//! | Etc | Remaining functions (e.g. IRQ handling) |

use crate::schema::{field, Field, Section};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut};

/// One of the eight CPU-cycle categories of the paper's Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Payload copies between user space and kernel space.
    DataCopy,
    /// TCP/IP protocol processing (including ACK generation/processing).
    TcpIp,
    /// Netdevice subsystem: NAPI polling, GSO/GRO, qdisc, driver Tx/Rx.
    NetDevice,
    /// Building, splitting, merging and releasing skbs.
    SkbMgmt,
    /// Memory management: skb/page allocation, page-pool, IOMMU map/unmap.
    Memory,
    /// Socket and other lock acquire/release, including contention spins.
    Lock,
    /// Thread scheduling, wakeups, and context switching.
    Sched,
    /// Everything else: IRQ handling, timers, miscellaneous.
    Etc,
}

/// All categories in the display order the paper uses.
pub const ALL_CATEGORIES: [Category; 8] = [
    Category::DataCopy,
    Category::TcpIp,
    Category::NetDevice,
    Category::SkbMgmt,
    Category::Memory,
    Category::Lock,
    Category::Sched,
    Category::Etc,
];

impl Category {
    /// Stable dense index (0..8) for array storage.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Category::DataCopy => 0,
            Category::TcpIp => 1,
            Category::NetDevice => 2,
            Category::SkbMgmt => 3,
            Category::Memory => 4,
            Category::Lock => 5,
            Category::Sched => 6,
            Category::Etc => 7,
        }
    }

    /// Short label used in figure tables.
    pub const fn label(self) -> &'static str {
        match self {
            Category::DataCopy => "data_copy",
            Category::TcpIp => "tcp/ip",
            Category::NetDevice => "netdevice",
            Category::SkbMgmt => "skb_mgmt",
            Category::Memory => "memory",
            Category::Lock => "lock/unlock",
            Category::Sched => "scheduling",
            Category::Etc => "etc",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles charged per category. The fundamental profiling datum of the
/// reproduction: the paper's Figs. 3c/3d/5b/5c/6b/7b/8b/9c/9d/10b/11b/12b/
/// 12c/13b/13c are all rendered from one of these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    cycles: [u64; 8],
}

impl CycleBreakdown {
    /// All-zero breakdown.
    pub const fn new() -> Self {
        CycleBreakdown { cycles: [0; 8] }
    }

    /// Charge `cycles` to `cat`.
    #[inline]
    pub fn charge(&mut self, cat: Category, cycles: u64) {
        self.cycles[cat.index()] += cycles;
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Fraction of total cycles in `cat` (0 if empty).
    pub fn fraction(&self, cat: Category) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.cycles[cat.index()] as f64 / total as f64
        }
    }

    /// All fractions in [`ALL_CATEGORIES`] order.
    pub fn fractions(&self) -> [f64; 8] {
        let total = self.total();
        let mut out = [0.0; 8];
        if total > 0 {
            for (i, &c) in self.cycles.iter().enumerate() {
                out[i] = c as f64 / total as f64;
            }
        }
        out
    }

    /// The category with the most cycles (ties broken by display order;
    /// `None` if empty).
    pub fn dominant(&self) -> Option<Category> {
        if self.total() == 0 {
            return None;
        }
        ALL_CATEGORIES
            .into_iter()
            .max_by_key(|c| self.cycles[c.index()])
    }

    /// Reset all counters (end of warmup).
    pub fn reset(&mut self) {
        self.cycles = [0; 8];
    }

    /// Iterate `(category, cycles)` in display order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, u64)> + '_ {
        ALL_CATEGORIES
            .into_iter()
            .map(|c| (c, self.cycles[c.index()]))
    }
}

impl Section for CycleBreakdown {
    const FIELDS: &'static [Field<Self>] = &[field!(cycles)];
}

impl Index<Category> for CycleBreakdown {
    type Output = u64;
    fn index(&self, cat: Category) -> &u64 {
        &self.cycles[cat.index()]
    }
}

impl IndexMut<Category> for CycleBreakdown {
    fn index_mut(&mut self, cat: Category) -> &mut u64 {
        &mut self.cycles[cat.index()]
    }
}

impl Add for CycleBreakdown {
    type Output = CycleBreakdown;
    fn add(mut self, rhs: CycleBreakdown) -> CycleBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for CycleBreakdown {
    fn add_assign(&mut self, rhs: CycleBreakdown) {
        for i in 0..8 {
            self.cycles[i] += rhs.cycles[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Node;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 8];
        for c in ALL_CATEGORIES {
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn charge_and_total() {
        let mut b = CycleBreakdown::new();
        b.charge(Category::DataCopy, 100);
        b.charge(Category::TcpIp, 50);
        b.charge(Category::DataCopy, 25);
        assert_eq!(b.total(), 175);
        assert_eq!(b[Category::DataCopy], 125);
        assert_eq!(b[Category::TcpIp], 50);
        assert_eq!(b[Category::Etc], 0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = CycleBreakdown::new();
        for (i, c) in ALL_CATEGORIES.into_iter().enumerate() {
            b.charge(c, (i as u64 + 1) * 10);
        }
        let s: f64 = b.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_fractions_are_zero() {
        let b = CycleBreakdown::new();
        assert_eq!(b.fraction(Category::DataCopy), 0.0);
        assert_eq!(b.dominant(), None);
    }

    #[test]
    fn dominant_category() {
        let mut b = CycleBreakdown::new();
        b.charge(Category::Sched, 10);
        b.charge(Category::DataCopy, 100);
        assert_eq!(b.dominant(), Some(Category::DataCopy));
    }

    #[test]
    fn addition_merges() {
        let mut a = CycleBreakdown::new();
        a.charge(Category::Lock, 5);
        let mut b = CycleBreakdown::new();
        b.charge(Category::Lock, 7);
        b.charge(Category::Memory, 3);
        let c = a + b;
        assert_eq!(c[Category::Lock], 12);
        assert_eq!(c[Category::Memory], 3);
        assert_eq!(c.total(), 15);
    }

    #[test]
    fn json_round_trip() {
        let mut b = CycleBreakdown::new();
        b.charge(Category::NetDevice, 42);
        let mut back = CycleBreakdown::new();
        back.read(&b.to_value()).unwrap();
        assert_eq!(b, back);
    }
}
