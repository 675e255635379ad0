//! The file-backed journal: append, fsync discipline and torn-tail repair.
//!
//! One [`WalJournal`] serves the whole daemon — all tenants share a single
//! append-only file and one monotonic sequence, which is what gives the
//! standby a total order to replay. Per-tenant commit pipelines hold a
//! cheap [`TenantJournal`] handle (tenant id + `Arc` of the journal) and
//! call its typed helpers at the single validate-and-commit point.
//!
//! Durability discipline: every append is written straight to the file
//! (no userspace buffering) before it returns, so a *process* crash loses
//! nothing. What an *OS* crash can lose is bounded by the **durable
//! watermark** ([`WalStats::durable_seq`]): the highest sequence number a
//! successful `fdatasync` covers. The commit path does not run that
//! `fdatasync` itself. A background syncer thread owned by the journal
//! does, in group-commit fashion:
//!
//! * **Trigger.** An append that leaves at least half of
//!   [`FSYNC_EVERY`] records unsynced wakes the syncer, unless
//!   a sync is already running. The syncer captures the last written
//!   record and syncs without holding the append lock; on success the
//!   watermark moves to the captured record, and the syncer goes again at
//!   once if half a cadence is unsynced by then.
//! * **Bound.** An append returns only once its own record is fewer than
//!   `FSYNC_EVERY` records past the watermark; until then it waits for
//!   the syncer, *after* releasing the append lock, so other tenants'
//!   appends, [`WalJournal::tail`] and [`WalJournal::last_seq`] never
//!   queue behind one `fdatasync`. So, as with an inline `fsync` every
//!   `FSYNC_EVERY` appends, at most `FSYNC_EVERY − 1` records of returned
//!   appends are ever exposed to an OS crash ([`WalStats::max_unsynced`]
//!   records the worst gap an append returned with).
//! * **Synchronous paths.** [`WalJournal::sync`], [`WalJournal::seal`],
//!   and [`WalJournal::bump_epoch`] (fencing must be durable) sync inline
//!   and advance the watermark themselves.
//! * **Failures.** A failed `fdatasync` is counted in
//!   [`WalStats::append_errors`] and leaves the watermark where it was;
//!   the next trigger retries. An append waiting on the bound is released
//!   by the failure rather than hanging the pipeline, so a failing disk
//!   shows up as `max_unsynced ≥ FSYNC_EVERY`, never as a silently reset
//!   counter.
//!
//! A torn final record — the crash-mid-append case — is repaired on
//! [`WalJournal::open_append`] by truncating to the last intact record.

use super::record::{decode_records, encode_record, ChangeOp, ChangeRecord, LogTail};
use crate::wire::WireError;
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Durability invariant: a log file's *existence* is only durable once its
/// parent directory has been fsynced. `sync_all` on the file descriptor
/// persists the file's contents and inode, but the directory entry naming
/// it lives in the directory's own blocks — a crash right after creation
/// or truncation-repair can otherwise resurrect the old file or lose it
/// entirely. Every point that creates or shrinks the log file calls this
/// on the parent before declaring the operation durable.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// The durability bound: no append returns with this many or more
/// written-but-unsynced records. `seal`, `sync` and `bump_epoch` always
/// sync.
pub const FSYNC_EVERY: u64 = 64;

/// Unsynced records at which an append wakes the syncer: half the bound,
/// so a sync usually lands before any append has to wait.
const SYNC_TRIGGER: u64 = FSYNC_EVERY / 2;

/// Counters describing the journal's life so far (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Payload + header bytes written by appends.
    pub bytes: u64,
    /// Successful `fsync` calls, background and synchronous together.
    pub fsyncs: u64,
    /// Appends or syncs that failed at the I/O layer (the daemon keeps
    /// planning; durability is degraded and the operator must act).
    pub append_errors: u64,
    /// Appends refused because they were stamped with a stale leadership
    /// epoch — a fenced-off ex-primary tried to write.
    pub fenced_appends: u64,
    /// The durable watermark: the highest sequence number covered by a
    /// successful `fsync` (0 = none yet).
    pub durable_seq: u64,
    /// The largest gap between an append's own record and the watermark
    /// when the append returned. Below [`FSYNC_EVERY`] unless a sync
    /// failed.
    pub max_unsynced: u64,
}

struct Inner {
    /// Shared with the syncer, which only ever calls `sync_data` on it.
    file: Arc<File>,
    next_seq: u64,
    /// The leadership epoch: the largest [`ChangeOp::Epoch`] written so
    /// far, 1 before the first.
    epoch: u64,
}

/// What the append path and the syncer share. Lock order: the journal's
/// `inner` before `state`, always. Appenders wait on `synced` only after
/// releasing `inner`.
struct Durability {
    state: Mutex<SyncState>,
    /// Wakes the syncer.
    wake: Condvar,
    /// Signalled whenever a sync ends, successful or not.
    synced: Condvar,
    fsyncs: AtomicU64,
    append_errors: AtomicU64,
}

struct SyncState {
    /// Records written so far, and the sequence number of the last one.
    written: u64,
    written_seq: u64,
    /// Records, and the sequence number, covered by a successful sync.
    durable: u64,
    durable_seq: u64,
    max_unsynced: u64,
    /// A sync has been asked for and the syncer has not picked it up yet.
    requested: bool,
    /// The syncer is inside `sync_data`.
    running: bool,
    /// Failed syncs so far; a waiting appender gives up when it moves.
    failures: u64,
    shutdown: bool,
}

impl SyncState {
    fn unsynced(&self) -> u64 {
        self.written - self.durable
    }
}

impl Durability {
    fn new(durable_seq: u64) -> Self {
        Durability {
            state: Mutex::new(SyncState {
                written: 0,
                written_seq: durable_seq,
                durable: 0,
                durable_seq,
                max_unsynced: 0,
                requested: false,
                running: false,
                failures: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            synced: Condvar::new(),
            fsyncs: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().expect("wal sync lock poisoned")
    }

    /// Ask the syncer for a sync unless one is already asked for or
    /// running.
    fn request(&self, st: &mut SyncState) {
        if !st.requested && !st.running {
            st.requested = true;
            self.wake.notify_one();
        }
    }

    /// Fold the outcome of a sync that covered `(written, written_seq)`
    /// into the watermark. Both fields only ever grow: a background sync
    /// may finish after an inline one that covered more.
    fn settle(&self, st: &mut SyncState, covered: (u64, u64), res: std::io::Result<()>) {
        match res {
            Ok(()) => {
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                st.durable = st.durable.max(covered.0);
                st.durable_seq = st.durable_seq.max(covered.1);
            }
            Err(e) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
                st.failures += 1;
                eprintln!("carp-service: wal fsync failed: {e}");
            }
        }
        self.synced.notify_all();
    }

    /// The syncer thread: sleep until asked, sync the file as it stands
    /// without any journal lock, advance the watermark, and go again at
    /// once while half a cadence is unsynced.
    fn run(&self, file: &File) {
        let mut st = self.lock();
        loop {
            while !st.requested && !st.shutdown {
                st = self.wake.wait(st).expect("wal sync lock poisoned");
            }
            if st.shutdown {
                return;
            }
            st.requested = false;
            st.running = true;
            let covered = (st.written, st.written_seq);
            drop(st);
            let res = file.sync_data();
            st = self.lock();
            st.running = false;
            let ok = res.is_ok();
            self.settle(&mut st, covered, res);
            if ok && st.unsynced() >= SYNC_TRIGGER {
                st.requested = true;
            }
        }
    }
}

/// Records queued for one live tail subscriber, shared between the
/// journal's append path and whoever drains the subscription.
struct TailState {
    queue: VecDeque<ChangeRecord>,
}

struct TailEntry {
    shared: Arc<Mutex<TailState>>,
    waker: Box<dyn Fn() + Send>,
}

/// A live subscription to the journal's append stream, handed out by
/// [`WalJournal::tail`]. Records pushed after the catch-up point accumulate
/// in an internal queue; [`LogSubscription::drain`] empties it. Dropping
/// the subscription unregisters it (the journal garbage-collects entries
/// whose subscriber is gone on the next append).
pub struct LogSubscription {
    shared: Arc<Mutex<TailState>>,
}

impl LogSubscription {
    /// Take every record queued since the last drain, in append order.
    pub fn drain(&self) -> Vec<ChangeRecord> {
        let mut st = self.shared.lock().expect("tail subscription lock");
        st.queue.drain(..).collect()
    }

    /// Whether records are currently queued.
    pub fn has_pending(&self) -> bool {
        !self
            .shared
            .lock()
            .expect("tail subscription lock")
            .queue
            .is_empty()
    }
}

/// The shared append-only changeset log.
pub struct WalJournal {
    path: PathBuf,
    inner: Mutex<Inner>,
    /// Live tail subscribers. Lock order: `inner` before `subs`, always.
    subs: Mutex<Vec<TailEntry>>,
    durability: Arc<Durability>,
    syncer: Option<JoinHandle<()>>,
    appends: AtomicU64,
    bytes: AtomicU64,
    fenced_appends: AtomicU64,
}

impl Drop for WalJournal {
    /// Stop and join the syncer. No final sync: that is [`WalJournal::seal`]'s
    /// job, and a dropped journal promises no more than its watermark.
    fn drop(&mut self) {
        // Setting the flag is valid whatever state a panicking holder
        // left behind, and `Drop` must not panic itself.
        let mut st = self
            .durability
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.durability.wake.notify_one();
        if let Some(syncer) = self.syncer.take() {
            if syncer.join().is_err() {
                eprintln!("carp-service: wal syncer panicked");
            }
        }
    }
}

impl std::fmt::Debug for WalJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalJournal")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl WalJournal {
    /// Create a fresh (truncated) journal at `path`.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Arc<WalJournal>> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        // See sync_parent_dir: the file's contents are empty, but its
        // directory entry (or the truncation of a prior incarnation) must
        // survive a crash before any append is trusted to.
        sync_parent_dir(&path)?;
        Self::start(path, file, 1, 1)
    }

    /// Wrap an open log file whose records up to `next_seq − 1` are
    /// already durable, and start its syncer.
    fn start(
        path: PathBuf,
        file: File,
        next_seq: u64,
        epoch: u64,
    ) -> std::io::Result<Arc<WalJournal>> {
        let file = Arc::new(file);
        let durability = Arc::new(Durability::new(next_seq - 1));
        let syncer = {
            let durability = Arc::clone(&durability);
            let file = Arc::clone(&file);
            std::thread::Builder::new()
                .name("wal-syncer".into())
                .spawn(move || durability.run(&file))?
        };
        Ok(Arc::new(WalJournal {
            path,
            inner: Mutex::new(Inner {
                file,
                next_seq,
                epoch,
            }),
            subs: Mutex::new(Vec::new()),
            durability,
            syncer: Some(syncer),
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fenced_appends: AtomicU64::new(0),
        }))
    }

    /// Open an existing journal for appending: decode its intact prefix,
    /// truncate any torn tail, and resume the sequence after the last
    /// record. Returns the decoded history (for standby replay) and how
    /// the tail looked before repair.
    pub fn open_append(
        path: impl Into<PathBuf>,
    ) -> std::io::Result<(Arc<WalJournal>, Vec<ChangeRecord>, LogTail)> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (records, tail) = decode_records(&buf);
        if let LogTail::Torn { valid_bytes, .. } = tail {
            file.set_len(valid_bytes)?;
            file.sync_all()?;
            // See sync_parent_dir: the repair shrank the file; make the
            // repaired length durable before resuming appends over it.
            sync_parent_dir(&path)?;
        } else {
            // The watermark starts at the last intact record: a crashed
            // writer's records may still sit in the page cache.
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let next_seq = records.last().map_or(1, |r| r.seq + 1);
        let epoch = records
            .iter()
            .filter_map(|r| match r.op {
                ChangeOp::Epoch(epoch) => Some(epoch),
                _ => None,
            })
            .fold(1, u64::max);
        let journal = Self::start(path, file, next_seq, epoch)?;
        Ok((journal, records, tail))
    }

    /// Append one op for `tenant`, returning the assigned sequence number.
    ///
    /// I/O failures are absorbed (counted in [`WalStats::append_errors`]
    /// and reported on stderr) rather than propagated: the planning
    /// pipeline must not die because the disk did — degraded durability
    /// beats a mid-day outage, and the stats surface the damage.
    pub fn append(&self, tenant: &str, op: ChangeOp) -> u64 {
        let mut inner = self.inner.lock().expect("wal lock poisoned");
        let (seq, written) = self.append_locked(&mut inner, tenant, op);
        drop(inner);
        self.await_bound(written);
        seq
    }

    /// [`WalJournal::append`] fenced on a leadership epoch: refused with
    /// [`WireError::Fenced`] when `epoch` is older than the journal's
    /// current one (a standby took over since the caller captured its
    /// handle). This is the split-brain guard — a resurrected primary's
    /// stale appends are counted ([`WalStats::fenced_appends`]) and
    /// rejected instead of corrupting the journal.
    pub fn append_at(&self, epoch: u64, tenant: &str, op: ChangeOp) -> Result<u64, WireError> {
        let mut inner = self.inner.lock().expect("wal lock poisoned");
        let current = inner.epoch;
        if epoch < current {
            self.fenced_appends.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::Fenced {
                stale: epoch,
                current,
            });
        }
        let (seq, written) = self.append_locked(&mut inner, tenant, op);
        drop(inner);
        self.await_bound(written);
        Ok(seq)
    }

    /// The journal's current leadership epoch (1 until the first bump).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("wal lock poisoned").epoch
    }

    /// Bump the leadership epoch by one: journal an [`ChangeOp::Epoch`]
    /// record and fsync it immediately — fencing is only a guarantee once
    /// the bump is durable. Returns the new epoch. The standby's takeover
    /// call; every [`TenantJournal`] handle captured before it is fenced
    /// off from then on.
    pub fn bump_epoch(&self) -> u64 {
        let mut inner = self.inner.lock().expect("wal lock poisoned");
        let next = inner.epoch + 1;
        // The inline sync covers the bump, so there is no bound to wait on.
        self.append_locked(&mut inner, "", ChangeOp::Epoch(next));
        self.sync_locked(&inner);
        next
    }

    /// Append a record shipped from a primary verbatim, preserving its
    /// log-wide sequence number (the standby's side of live shipping).
    /// Returns `false` when `rec.seq` is not past the journal's last
    /// sequence — duplicate delivery after a tail reconnect is skipped,
    /// not an error. A shipped [`ChangeOp::Epoch`] raises the journal's
    /// epoch, so a standby fences what its primary fenced.
    pub fn append_record(&self, rec: &ChangeRecord) -> bool {
        let mut inner = self.inner.lock().expect("wal lock poisoned");
        if rec.seq < inner.next_seq {
            return false;
        }
        let written = self.push_locked(&mut inner, rec);
        drop(inner);
        self.await_bound(written);
        true
    }

    /// Append under `inner`; returns the record's sequence number and its
    /// write index for [`WalJournal::await_bound`], which the caller runs
    /// after releasing `inner`.
    fn append_locked(&self, inner: &mut Inner, tenant: &str, op: ChangeOp) -> (u64, Option<u64>) {
        let rec = ChangeRecord {
            seq: inner.next_seq,
            tenant: tenant.to_string(),
            op,
        };
        (rec.seq, self.push_locked(inner, &rec))
    }

    /// Take `rec` as the journal's next record: advance the sequence and
    /// the epoch, write it, and ship it. Returns its write index.
    fn push_locked(&self, inner: &mut Inner, rec: &ChangeRecord) -> Option<u64> {
        inner.next_seq = rec.seq + 1;
        if let ChangeOp::Epoch(epoch) = rec.op {
            // Epochs only move forward; a stale bump in the stream is
            // ignored rather than rewinding the fence.
            inner.epoch = inner.epoch.max(epoch);
        }
        let written = self.write_locked(inner, rec);
        // Ship to live tail subscribers *under the append lock*: the
        // subscriber's queue order is exactly the journal's append order,
        // and a tail() registration can never miss a record between its
        // catch-up read and its first push.
        self.ship_to_subs(rec);
        written
    }

    /// Write `rec` through to the file and wake the syncer at half a
    /// cadence unsynced. Called with `inner` held, which is what keeps
    /// `written` in file order. Returns the record's write index (`None`
    /// when the write failed).
    fn write_locked(&self, inner: &Inner, rec: &ChangeRecord) -> Option<u64> {
        let bytes = encode_record(rec);
        if let Err(e) = (&*inner.file).write_all(&bytes) {
            self.durability
                .append_errors
                .fetch_add(1, Ordering::Relaxed);
            eprintln!("carp-service: wal append failed: {e}");
            return None;
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let d = &*self.durability;
        let mut st = d.lock();
        st.written += 1;
        st.written_seq = rec.seq;
        if st.unsynced() >= SYNC_TRIGGER {
            d.request(&mut st);
        }
        Some(st.written)
    }

    /// Hold the durability bound for the record written at index
    /// `written`: wait, without any journal lock, until it is fewer than
    /// [`FSYNC_EVERY`] records past the watermark, or until a sync fails.
    fn await_bound(&self, written: Option<u64>) {
        let Some(written) = written else {
            return;
        };
        let d = &*self.durability;
        let mut st = d.lock();
        let failures = st.failures;
        while written.saturating_sub(st.durable) >= FSYNC_EVERY && st.failures == failures {
            d.request(&mut st);
            st = d.synced.wait(st).expect("wal sync lock poisoned");
        }
        let gap = written.saturating_sub(st.durable);
        debug_assert!(
            gap < FSYNC_EVERY || st.failures != failures,
            "append returned {gap} records past the watermark (bound {FSYNC_EVERY})"
        );
        st.max_unsynced = st.max_unsynced.max(gap);
    }

    /// Push `rec` to every live subscriber and wake it; entries whose
    /// subscriber dropped its [`LogSubscription`] are garbage-collected
    /// here (the queue `Arc` has a single owner left).
    fn ship_to_subs(&self, rec: &ChangeRecord) {
        let mut subs = self.subs.lock().expect("wal subs lock");
        subs.retain(|entry| {
            if Arc::strong_count(&entry.shared) == 1 {
                return false;
            }
            entry
                .shared
                .lock()
                .expect("tail subscription lock")
                .queue
                .push_back(rec.clone());
            (entry.waker)();
            true
        });
    }

    /// Subscribe to the journal's live append stream, starting at
    /// `from_seq`: returns every already-journaled record with
    /// `seq >= from_seq` (the catch-up) plus a [`LogSubscription`] that
    /// every later append is pushed into.
    /// `waker` is called (with no journal locks held by the *caller*)
    /// after each push — a reactor points it at its self-pipe.
    pub fn tail(
        &self,
        from_seq: u64,
        waker: impl Fn() + Send + 'static,
    ) -> std::io::Result<(Vec<ChangeRecord>, LogSubscription)> {
        // Hold the append lock across the catch-up read *and* the
        // registration: no record can slip between the two, so catch-up ⊕
        // pushed stream is gap-free and duplicate-free.
        let _inner = self.inner.lock().expect("wal lock poisoned");
        let buf = std::fs::read(&self.path)?;
        let (records, _tail) = decode_records(&buf);
        let catch_up: Vec<ChangeRecord> =
            records.into_iter().filter(|r| r.seq >= from_seq).collect();
        let shared = Arc::new(Mutex::new(TailState {
            queue: VecDeque::new(),
        }));
        self.subs.lock().expect("wal subs lock").push(TailEntry {
            shared: Arc::clone(&shared),
            waker: Box::new(waker),
        });
        Ok((catch_up, LogSubscription { shared }))
    }

    /// Sync inline: with `inner` held nothing new is written meanwhile,
    /// so on success the watermark reaches the last written record.
    fn sync_locked(&self, inner: &Inner) {
        let d = &*self.durability;
        let covered = {
            let st = d.lock();
            (st.written, st.written_seq)
        };
        let res = inner.file.sync_data();
        d.settle(&mut d.lock(), covered, res);
    }

    /// Force everything written so far to stable storage.
    pub fn sync(&self) {
        let inner = self.inner.lock().expect("wal lock poisoned");
        self.sync_locked(&inner);
    }

    /// Seal the journal: final fsync of the file *and* its directory
    /// entry (see `sync_parent_dir` — a log created this run is not
    /// durable until the directory is). Called by graceful shutdown after
    /// every tenant has been drained and closed.
    pub fn seal(&self) {
        self.sync();
        if let Err(e) = sync_parent_dir(&self.path) {
            self.durability
                .append_errors
                .fetch_add(1, Ordering::Relaxed);
            eprintln!("carp-service: wal directory fsync failed: {e}");
        }
    }

    /// Snapshot of the journal's counters.
    pub fn stats(&self) -> WalStats {
        let d = &*self.durability;
        let (durable_seq, max_unsynced) = {
            let st = d.lock();
            (st.durable_seq, st.max_unsynced)
        };
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: d.fsyncs.load(Ordering::Relaxed),
            append_errors: d.append_errors.load(Ordering::Relaxed),
            fenced_appends: self.fenced_appends.load(Ordering::Relaxed),
            durable_seq,
            max_unsynced,
        }
    }

    /// Sequence number of the last record appended (0 = empty log).
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().expect("wal lock poisoned").next_seq - 1
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read and decode a changeset log without opening it for append. Never
/// errors on a torn tail — the intact prefix and the tail verdict come
/// back; only genuine I/O failures (missing file, bad permissions) error.
pub fn read_log(path: &Path) -> std::io::Result<(Vec<ChangeRecord>, LogTail)> {
    let buf = std::fs::read(path)?;
    Ok(decode_records(&buf))
}

/// A tenant-scoped handle on the shared journal: what the commit pipeline
/// actually holds. Cloneable and cheap; every helper is one append.
///
/// The handle captures the journal's leadership epoch at construction and
/// stamps every append with it ([`WalJournal::append_at`]): after a
/// standby takeover bumps the epoch, a handle a resurrected primary still
/// holds is fenced — its appends are refused and counted, never written.
#[derive(Clone)]
pub struct TenantJournal {
    tenant: Arc<str>,
    journal: Arc<WalJournal>,
    epoch: u64,
}

impl std::fmt::Debug for TenantJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantJournal")
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl TenantJournal {
    /// Scope `journal` to one tenant, capturing its current epoch.
    pub fn new(journal: Arc<WalJournal>, tenant: &str) -> Self {
        let epoch = journal.epoch();
        TenantJournal {
            tenant: Arc::from(tenant),
            journal,
            epoch,
        }
    }

    /// The underlying shared journal.
    pub fn journal(&self) -> &Arc<WalJournal> {
        &self.journal
    }

    /// The leadership epoch this handle appends under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// One fenced-aware append: a refusal is already counted by the
    /// journal, and the pipeline must keep planning either way — the
    /// fence protects the *log*, not the ex-primary's in-memory day.
    fn append(&self, op: ChangeOp) {
        let _ = self.journal.append_at(self.epoch, &self.tenant, op);
    }

    /// Journal the tenant's registration.
    pub fn open(&self) {
        self.append(ChangeOp::TenantOpen);
    }

    /// Journal the tenant's deregistration and force it to disk.
    pub fn close(&self) {
        self.append(ChangeOp::TenantClose);
        self.journal.sync();
    }

    /// Journal one validated commit.
    pub fn commit(&self, request: &Request, route: &Route) {
        self.append(ChangeOp::Commit {
            request: *request,
            route: route.clone(),
        });
    }

    /// Journal a cancel of a committed route.
    pub fn cancel(&self, id: RequestId) {
        self.append(ChangeOp::Cancel { id });
    }

    /// Journal a clock advance: first any route revisions the planner
    /// produced (windowed TWP/RP repairs), then the advance itself, which
    /// implies batched retirement of routes ending before `now`.
    pub fn advance(&self, now: Time, revisions: &[(RequestId, Route)]) {
        for (id, route) in revisions {
            self.append(ChangeOp::Revise {
                id: *id,
                route: route.clone(),
            });
        }
        self.append(ChangeOp::Advance { now });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// An appender parked on the durability bound holds no journal lock:
    /// readers and other appenders go on while it waits for the syncer.
    #[test]
    fn an_append_parked_on_the_bound_does_not_block_the_journal() {
        let path =
            std::env::temp_dir().join(format!("carp-wal-bound-unit-{}.wal", std::process::id()));
        let journal = WalJournal::create(&path).expect("create journal");
        // Pretend a sync is already running: requests are then left to it,
        // so nothing reaches the disk until the test lets the syncer go.
        journal.durability.lock().running = true;
        // Fill the log to one record short of the bound; the next append
        // is the one that must wait.
        for _ in 1..FSYNC_EVERY {
            journal.append("t", ChangeOp::TenantOpen);
        }

        let appender = {
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || journal.append("t", ChangeOp::TenantOpen))
        };
        while journal.durability.lock().written < FSYNC_EVERY {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !appender.is_finished(),
            "the append must wait for the watermark"
        );

        let (tx, rx) = mpsc::channel();
        {
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || {
                let last = journal.last_seq();
                let (catch_up, _sub) = journal.tail(1, || {}).expect("tail");
                let _ = tx.send((last, catch_up.len() as u64));
            });
        }
        let (last, caught_up) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("last_seq and tail must not wait behind a parked append");
        assert_eq!((last, caught_up), (FSYNC_EVERY, FSYNC_EVERY));
        assert!(!appender.is_finished());

        {
            let d = &*journal.durability;
            let mut st = d.lock();
            st.running = false;
            d.request(&mut st);
        }
        assert_eq!(appender.join().expect("appender"), FSYNC_EVERY);
        let stats = journal.stats();
        assert_eq!(stats.durable_seq, FSYNC_EVERY);
        assert_eq!(stats.max_unsynced, FSYNC_EVERY - 1);
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }
}
