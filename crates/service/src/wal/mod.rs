//! Durable changeset log + warm-standby recovery (DESIGN.md §15).
//!
//! Every state transition a tenant's commit pipeline performs at its
//! single validate-and-commit point — commit, cancel, clock advance
//! (batched retirement), windowed route revision, tenant open/close — is
//! appended to one shared, CRC-framed, append-only log. Replaying the log
//! in sequence order reconstructs the daemon's entire planning state:
//! a standby process does exactly that and finishes the day bit-identical
//! to an uninterrupted run.
//!
//! Durability discipline: an append writes its record through to the
//! file before it returns, so a process crash loses nothing. `fdatasync`
//! runs on a syncer thread the journal owns, off the commit path. The
//! journal's *durable watermark* is the highest sequence number a
//! successful sync covers. An append wakes the syncer at half of
//! [`log::FSYNC_EVERY`] unsynced records and waits for the watermark only
//! at a full one, so an append never returns with `FSYNC_EVERY` or more
//! unsynced records. `sync`, `seal` and `bump_epoch` sync inline. A
//! failed sync is counted and leaves the watermark where it was; the
//! next trigger retries.
//!
//! Layer map:
//!
//! * [`record`] — record framing (`u32 len · u32 crc · payload`), the
//!   [`record::ChangeOp`] vocabulary, and the torn-tail-tolerant decoder.
//! * [`log`] — the file-backed [`log::WalJournal`] (append, the
//!   background syncer and its durable watermark, torn-tail repair on
//!   open, the leadership epoch) and the per-tenant
//!   [`log::TenantJournal`] handle the pipelines hold.
//! * [`replay`] — pure state folding ([`replay::ReplayState`]), standby
//!   planner recovery ([`replay::recover_planners`]), the log-level
//!   strict audit ([`replay::audit_log`]), and `ReproBundle` derivation
//!   ([`replay::bundle_from_log`]).
//! * [`standby`] — the takeover path: [`standby::follow`] mirrors a
//!   primary's log over the wire, [`standby::take_over`] audits a log and
//!   then rebuilds its planners.

pub mod log;
pub mod record;
pub mod replay;
pub mod standby;

pub use self::log::{read_log, LogSubscription, TenantJournal, WalJournal, WalStats, FSYNC_EVERY};
pub use self::record::{ChangeOp, ChangeRecord, LogTail};
pub use self::replay::{
    audit_log, bundle_from_log, recover_planners, requests_in_log, ReplayState, TenantState,
};
pub use self::standby::{follow, take_over};
