//! Cache structures for the Whirlpool reproduction.
//!
//! This crate provides the hardware-ish building blocks the simulator
//! composes into memory hierarchies:
//!
//! * [`LruCache`] — an exact-capacity LRU line store, the model for one
//!   pool's partition of an LLC bank (idealized Vantage partitioning).
//! * [`SetAssocCache`] — a set-associative cache with pluggable
//!   [`ReplacementPolicy`] (LRU, Random, SRRIP, DRRIP with set dueling),
//!   used for private L1/L2s and the S-NUCA / IdealSPD baselines.
//! * [`PartitionedCache`] — a capacity-partitioned cache with per-partition
//!   quotas and LRU within each quota; the model of a Jigsaw bank shared by
//!   several virtual caches.
//! * [`UtilityMonitor`] — the GMON model: a sampled stack-distance monitor
//!   that yields per-interval [`wp_mrc::MissCurve`]s with EWMA ageing.
//!
//! # Example
//!
//! ```
//! use wp_cache::{AccessOutcome, LruCache};
//!
//! let mut c = LruCache::new(2);
//! assert!(matches!(c.access(1), AccessOutcome::Miss { evicted: None }));
//! assert!(matches!(c.access(2), AccessOutcome::Miss { evicted: None }));
//! assert!(matches!(c.access(1), AccessOutcome::Hit));
//! // 3 evicts 2 (LRU), not 1.
//! assert!(matches!(c.access(3), AccessOutcome::Miss { evicted: Some(2) }));
//! ```
// `deny` rather than `forbid`: `advise_hugepages` scopes a single allow
// around its `madvise` call (a pure hint — no memory is changed).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod lru;
mod monitor;
mod partitioned;
mod policy;
mod prefetch;
mod setassoc;

pub use lru::{AccessOutcome, LruCache};
pub use monitor::{MonitorConfig, UtilityMonitor};
pub use partitioned::PartitionedCache;
pub use policy::{DrripPolicy, LruPolicy, RandomPolicy, ReplacementPolicy, SrripPolicy};
pub use prefetch::advise_hugepages;
pub use setassoc::{CacheStats, SetAssocCache};
