//! The standby's takeover path, shared by the daemon's `--standby` /
//! `--follow` modes and the load harness's failover runs.
//!
//! * [`follow`] — the network standby's mirror: subscribe to a primary's
//!   changeset log over the wire and append every shipped record to the
//!   standby's own journal until the primary's stream ends.
//! * [`take_over`] — strict-audit a log, then rebuild its tenants'
//!   planners from it; a log whose audit fails rebuilds nothing.

use super::log::WalJournal;
use super::record::ChangeRecord;
use super::replay::{audit_log, recover_planners};
use crate::wire::{WireClient, WireError};
use carp_warehouse::collision::AuditConflict;
use carp_warehouse::planner::ReplayPlanner;
use std::collections::BTreeMap;
use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

/// How long [`follow`] keeps trying to subscribe while nothing has
/// shipped: long enough for a primary that is still starting up.
const SUBSCRIBE_PATIENCE: Duration = Duration::from_secs(3);
/// Pause between two subscription attempts.
const SUBSCRIBE_RETRY: Duration = Duration::from_millis(100);

/// Subscribe to the primary at `primary` from sequence 1 and mirror every
/// shipped record into `journal`, pushing each newly appended one onto
/// `shipped`, until the primary closes the stream (`Ok`) or the tail fails
/// (`Err`). Either way `shipped` holds the prefix received so far, and
/// `journal.last_seq()` is the last sequence mirrored.
///
/// A primary with a journal ships its tenants' open records on catch-up,
/// so a stream that ends before anything shipped means the standby never
/// subscribed. Connect and subscribe are then retried for a few seconds;
/// if nothing ever ships, `follow` returns the last error with nothing
/// added to `shipped` — the caller must not take over.
pub fn follow(
    primary: impl ToSocketAddrs,
    journal: &WalJournal,
    shipped: &mut Vec<ChangeRecord>,
) -> Result<(), WireError> {
    let before = shipped.len();
    let deadline = Instant::now() + SUBSCRIBE_PATIENCE;
    loop {
        let res = tail_once(&primary, journal, shipped);
        if shipped.len() > before {
            return res;
        }
        if Instant::now() >= deadline {
            return Err(res.err().unwrap_or(WireError::Closed));
        }
        std::thread::sleep(SUBSCRIBE_RETRY);
    }
}

/// One subscription: connect, tail from sequence 1, and mirror until the
/// stream ends.
fn tail_once(
    primary: &impl ToSocketAddrs,
    journal: &WalJournal,
    shipped: &mut Vec<ChangeRecord>,
) -> Result<(), WireError> {
    let mut client = WireClient::connect(primary)?;
    client.tail_log(1)?;
    while let Some((_epoch, records)) = client.next_log_chunk()? {
        for rec in records {
            if journal.append_record(&rec) {
                shipped.push(rec);
            }
        }
    }
    Ok(())
}

/// Strict-audit `records` ([`audit_log`]) and only then rebuild each
/// tenant's planner from them ([`recover_planners`]). On a failed audit
/// returns the first conflict and its tenant without calling `factory`.
pub fn take_over<P, F>(
    records: &[ChangeRecord],
    factory: F,
) -> Result<BTreeMap<String, P>, (String, AuditConflict)>
where
    P: ReplayPlanner,
    F: FnMut(&str) -> P,
{
    audit_log(records)?;
    Ok(recover_planners(records, factory))
}
