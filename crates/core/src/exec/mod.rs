//! The layered execution core shared by the single- and multi-GPU paths.
//!
//! Layering (each module may depend only on the ones above it):
//!
//! 1. [`plan`] — pure planning: `(SizeModel, Options, caps)` →
//!    [`plan::ExecPlan`]. No device state.
//! 2. [`compute`] — per-phase [`gr_sim::KernelSpec`] construction. No
//!    device state.
//! 3. [`device`] — [`device::DeviceCtx`]: one `Gpu` + streams, held
//!    allocations, the unified fault-retry loop, pending-kernel span
//!    resolution. The *only* module that calls `gr-sim` operations.
//! 4. [`movement`] — shard copy-in/copy-out policy (spray, zero-copy,
//!    chunking, storage stalls), issuing ops through [`device`].
//! 5. [`host`] — the host master state: the exact GAS computation every
//!    run performs (fanned out over host threads when available), with
//!    real wall-clock attribution via `gr_observe`'s `WallProfiler`.
//! 6. [`driver`] — the single-device BSP iteration loop: frontier skip,
//!    checkpoint/rollback, host fallback, timeline emission.
//!
//! [`compress`] sits beside [`plan`] and [`compute`]: pure per-shard byte
//! accounting over the gap-coded topology (no device state), consumed by
//! the governor, the movement buffer sets, and the decompress pricing.
//! [`durable`] sits beside [`driver`]: the durable-checkpoint writer
//! (full/delta schedule, codec and placement, fault-hardened writes) shared
//! by the driver and the multi-GPU orchestrator.
//!
//! The multi-GPU orchestrator ([`crate::multi`]) sits beside [`driver`]:
//! it owns N [`device::DeviceCtx`]s plus the exchange/placement logic and
//! reuses layers 1-4 (and the driver's host-state/rollback helpers)
//! instead of re-implementing them. See `docs/ARCHITECTURE.md`.

pub mod compress;
pub mod compute;
pub mod device;
pub mod driver;
pub mod durable;
pub mod host;
pub mod movement;
pub mod plan;
