//! **Whirlpool**: static data classification driving dynamic NUCA cache
//! management — the primary contribution of Mukkara, Beckmann & Sanchez,
//! ASPLOS 2016.
//!
//! Whirlpool statically classifies program data into *memory pools* (e.g.
//! one per major data structure) and lets dynamic policies tune the cache
//! to each pool: every pool gets its own virtual cache (VC), monitored at
//! run time and re-sized/re-placed every reconfiguration interval by the
//! Jigsaw runtime. Pools do not encode policies — they make it easy for the
//! hardware to *find* the right policy (Sec. 1–2).
//!
//! This crate provides:
//!
//! * [`PoolAllocator`] — the Sec. 3.1 programmer API: `pool_create`,
//!   `pool_malloc` (and friends), built on the `wp-mem` heap, emitting the
//!   [`wp_sim::PoolDescriptor`]s the hardware consumes.
//! * [`VcRegistry`] — the Sec. 3.2 system-call layer: `sys_vc_alloc`,
//!   `sys_vc_free`, `sys_vc_tag`, and tagged `sys_mmap`, with the safety
//!   checks the paper requires (a process may only tag its own VCs).
//! * [`scheme`] / [`scheme_without_bypass`] — the LLC scheme: the shared
//!   [`wp_jigsaw::NucaRuntime`] configured with per-pool VCs (and VC
//!   bypassing, unless ablated). Whirlpool adds no runtime of its own.
//! * [`manual`] — the Table 2 manual classifications (pools, data
//!   structures, and lines-of-code changed for the 12 hand-ported apps).
//!
//! # Quickstart
//!
//! ```
//! use whirlpool::PoolAllocator;
//! use wp_sim::SystemConfig;
//!
//! // Classify data into pools with the allocator...
//! let mut alloc = PoolAllocator::new();
//! let points = alloc.pool_create("points");
//! let _buf = alloc.pool_malloc(512 * 1024, points);
//! let pools = alloc.descriptors();
//! assert_eq!(pools.len(), 1);
//!
//! // ...and hand the classification to the Whirlpool-managed LLC.
//! let scheme = whirlpool::scheme(SystemConfig::four_core());
//! assert_eq!(wp_sim::LlcScheme::name(&scheme), "Whirlpool");
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
pub mod manual;
mod scheme;
mod syscalls;

pub use api::PoolAllocator;
pub use scheme::{scheme, scheme_without_bypass};
pub use syscalls::{SysError, VcRegistry};
