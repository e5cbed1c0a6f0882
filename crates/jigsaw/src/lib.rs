//! Jigsaw: the software-defined, shared-baseline D-NUCA that Whirlpool
//! builds on (Sec. 2.4; Beckmann & Sanchez, PACT'13 / HPCA'15).
//!
//! Jigsaw groups bank partitions into *virtual caches* (VCs). Pages map to a
//! VC through the TLB; a per-core *virtual-cache translation buffer* (VTB)
//! maps each address to its unique bank — data never migrates in response
//! to accesses, so every access is a single lookup. A lightweight OS runtime
//! periodically (every 25 ms) re-sizes VCs using end-to-end *latency curves*
//! and re-places them with the *trading* placement algorithm driven by
//! access intensity (APKI per MB).
//!
//! The same machinery, parameterized, *is* Whirlpool: the `whirlpool` crate
//! enables per-pool VCs and bypassing on top of this [`NucaRuntime`]. That
//! mirrors the paper: "Whirlpool chooses VC sizes identically to Jigsaw,
//! with the only difference being that each memory pool gets its own VC."
//!
//! Entry points:
//! * [`NucaRuntime::jigsaw`] / [`NucaRuntime::jigsaw_without_bypass`] —
//!   the baseline scheme (thread/process VCs only), a configured
//!   [`NucaRuntime`] that plugs into [`wp_sim::MultiCoreSim`] as is.
//! * [`NucaRuntime`] / [`NucaConfig`] — the parameterized runtime that
//!   `whirlpool` configures with per-pool VCs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod placement;
mod runtime;
mod sizing;
mod vc;
mod vtb;

pub use placement::{place_and_trade, PlacementInput, PlacementResult};
pub use runtime::{NucaConfig, NucaRuntime};
pub use sizing::{size_vcs, SizingInput, SizingOutcome};
pub use vc::{VcKind, VcState};
pub use vtb::Vtb;
