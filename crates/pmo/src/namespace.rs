//! OS-managed PMO namespace: names, ownership, permission modes, attach
//! keys, and inter-process sharing policy (paper §IV.A, second requirement).

use std::collections::BTreeMap;

use pmo_trace::PmoId;

use crate::error::{Result, RuntimeError};
use crate::storage::PoolStorage;

/// A user identifier (the namespace's permission subject).
pub type Uid = u32;

/// Unix-like permission mode for a pool: read/write for the owning user
/// and for everyone else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mode {
    /// Owner may attach for reading.
    pub owner_read: bool,
    /// Owner may attach for writing.
    pub owner_write: bool,
    /// Other users may attach for reading.
    pub other_read: bool,
    /// Other users may attach for writing.
    pub other_write: bool,
}

impl Mode {
    /// Owner read/write; no access for others (0600).
    #[must_use]
    pub const fn private() -> Self {
        Mode { owner_read: true, owner_write: true, other_read: false, other_write: false }
    }

    /// Owner read/write; others read-only (0644).
    #[must_use]
    pub const fn shared_read() -> Self {
        Mode { owner_read: true, owner_write: true, other_read: true, other_write: false }
    }

    /// Read/write for everyone (0666).
    #[must_use]
    pub const fn shared_write() -> Self {
        Mode { owner_read: true, owner_write: true, other_read: true, other_write: true }
    }

    fn allows(&self, is_owner: bool, write: bool) -> bool {
        match (is_owner, write) {
            (true, false) => self.owner_read,
            (true, true) => self.owner_write,
            (false, false) => self.other_read,
            (false, true) => self.other_write,
        }
    }
}

impl Default for Mode {
    fn default() -> Self {
        Mode::private()
    }
}

/// The intent a process declares when attaching a PMO (§IV.A: "a process
/// can express intent to read (R) or both read and write (RW)").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttachIntent {
    /// Read-only attachment; may be shared among processes.
    Read,
    /// Read-write attachment; exclusive against other writers.
    ReadWrite,
}

impl AttachIntent {
    /// Whether the intent includes writing.
    #[must_use]
    pub const fn writes(self) -> bool {
        matches!(self, AttachIntent::ReadWrite)
    }
}

/// A pool's health as judged by the last recovery that examined it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolHealth {
    /// Recovery metadata is intact; all data readable.
    Healthy,
    /// The pool attached and its metadata is intact, but some data
    /// lines are unreadable (injected or real media damage).
    Degraded,
    /// Recovery metadata itself is damaged; the pool refuses attach.
    Quarantined,
}

/// One registered pool.
#[derive(Debug)]
pub struct PoolEntry {
    /// Stable PMO/domain ID, assigned at creation.
    pub id: PmoId,
    /// Pool name (the namespace key).
    pub name: String,
    /// Owning user.
    pub owner: Uid,
    /// Permission mode.
    pub mode: Mode,
    /// Optional attach key: processes must present it to attach (§IV.A).
    pub attach_key: Option<u64>,
    /// Backing storage.
    pub storage: PoolStorage,
    /// Number of live read-only attachments.
    pub readers: u32,
    /// Number of live read-write attachments (0 or 1: single-writer).
    pub writers: u32,
    /// Sticky quarantine: set when recovery finds the pool's header or
    /// redo log damaged beyond safe repair. A quarantined pool refuses
    /// further attaches (data stays on media for forensics) until
    /// destroyed and recreated.
    pub quarantined: Option<&'static str>,
}

impl PoolEntry {
    /// Lifts a sticky quarantine after the media has been scrubbed.
    ///
    /// Quarantine exists because the pool's recovery metadata cannot be
    /// trusted; releasing it is only safe once nothing of the damaged
    /// image remains, so this refuses while any poisoned line survives.
    /// Returns the reason the pool had been quarantined for (so callers
    /// can log what was recovered from). A repeat media error after
    /// release re-quarantines exactly like the first: release clears the
    /// flag, never the mechanism.
    ///
    /// # Errors
    ///
    /// Fails with [`RuntimeError::PoolQuarantined`] if poisoned lines
    /// remain on media (scrub first).
    pub fn release_quarantine(&mut self) -> Result<Option<&'static str>> {
        if self.storage.poisoned_lines() > 0 {
            return Err(RuntimeError::PoolQuarantined {
                name: self.name.clone(),
                reason: "media still poisoned; scrub before releasing quarantine",
            });
        }
        Ok(self.quarantined.take())
    }

    /// The pool's current health.
    #[must_use]
    pub fn health(&self) -> PoolHealth {
        if self.quarantined.is_some() {
            PoolHealth::Quarantined
        } else if self.storage.poisoned_lines() > 0 {
            PoolHealth::Degraded
        } else {
            PoolHealth::Healthy
        }
    }
}

/// The OS-side PMO registry.
///
/// The namespace implements the paper's inter-process policy: a PMO may be
/// attached by many readers or one writer ("a PMO may be attached
/// exclusively to only one process for writing, but may be attached to
/// multiple processes for reading").
///
/// Pools live in a dense table indexed by [`PmoId::raw`]: ids are handed
/// out in increasing order and never reused, so an id-based lookup (every
/// runtime access makes one) is a bounds check and an index, and a
/// destroyed pool leaves an empty slot its id keeps pointing at. A
/// name-to-id index serves only the name-based calls.
#[derive(Debug)]
pub struct Namespace {
    /// Slot `i` holds the pool with id `i`; slot 0 (the NULL domain) and
    /// destroyed pools are `None`. The next id is the table's length.
    pools: Vec<Option<PoolEntry>>,
    ids_by_name: BTreeMap<String, PmoId>,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    /// Creates an empty namespace.
    #[must_use]
    pub fn new() -> Self {
        Namespace { pools: vec![None], ids_by_name: BTreeMap::new() }
    }

    /// Registers a new pool; returns its stable PMO ID.
    pub fn create(&mut self, name: &str, size: u64, mode: Mode, owner: Uid) -> Result<PmoId> {
        if size == 0 {
            return Err(RuntimeError::InvalidSize(size));
        }
        if self.ids_by_name.contains_key(name) {
            return Err(RuntimeError::PoolExists(name.to_string()));
        }
        let id = PmoId::new(u32::try_from(self.pools.len()).expect("PMO ids fit in u32"));
        let mut storage = PoolStorage::new(size);
        storage.set_owner(id);
        self.pools.push(Some(PoolEntry {
            id,
            name: name.to_string(),
            owner,
            mode,
            attach_key: None,
            storage,
            readers: 0,
            writers: 0,
            quarantined: None,
        }));
        self.ids_by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Sets (or clears) a pool's attach key. Only the owner may do this.
    pub fn set_attach_key(&mut self, name: &str, uid: Uid, key: Option<u64>) -> Result<()> {
        let entry = self.entry_mut_by_name(name)?;
        if entry.owner != uid {
            return Err(RuntimeError::PermissionDenied {
                name: name.to_string(),
                reason: "only the owner may change the attach key",
            });
        }
        entry.attach_key = key;
        Ok(())
    }

    /// Validates an attach request and acquires the reader/writer lock.
    /// Returns the pool's PMO ID.
    pub fn acquire(
        &mut self,
        name: &str,
        uid: Uid,
        intent: AttachIntent,
        key: Option<u64>,
    ) -> Result<PmoId> {
        let entry = self.entry_mut_by_name(name)?;
        if let Some(reason) = entry.quarantined {
            return Err(RuntimeError::PoolQuarantined { name: name.to_string(), reason });
        }
        if !entry.mode.allows(entry.owner == uid, intent.writes()) {
            return Err(RuntimeError::PermissionDenied {
                name: name.to_string(),
                reason: "mode forbids the requested intent",
            });
        }
        if entry.attach_key.is_some() && entry.attach_key != key {
            return Err(RuntimeError::WrongAttachKey(name.to_string()));
        }
        match intent {
            AttachIntent::Read => {
                if entry.writers > 0 {
                    return Err(RuntimeError::ExclusivelyHeld(name.to_string()));
                }
                entry.readers += 1;
            }
            AttachIntent::ReadWrite => {
                if entry.writers > 0 || entry.readers > 0 {
                    return Err(RuntimeError::ExclusivelyHeld(name.to_string()));
                }
                entry.writers += 1;
            }
        }
        Ok(entry.id)
    }

    /// Releases an attachment lock previously acquired with
    /// [`Namespace::acquire`].
    pub fn release(&mut self, id: PmoId, intent: AttachIntent) -> Result<()> {
        let entry = self.entry_mut(id)?;
        match intent {
            AttachIntent::Read => entry.readers = entry.readers.saturating_sub(1),
            AttachIntent::ReadWrite => entry.writers = entry.writers.saturating_sub(1),
        }
        Ok(())
    }

    /// Looks up a pool by ID.
    #[inline]
    pub fn entry(&self, id: PmoId) -> Result<&PoolEntry> {
        self.pools
            .get(id.raw() as usize)
            .and_then(Option::as_ref)
            .ok_or(RuntimeError::NotAttached(id))
    }

    /// Looks up a pool mutably by ID.
    #[inline]
    pub fn entry_mut(&mut self, id: PmoId) -> Result<&mut PoolEntry> {
        self.pools
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
            .ok_or(RuntimeError::NotAttached(id))
    }

    fn id_of(&self, name: &str) -> Result<PmoId> {
        self.ids_by_name
            .get(name)
            .copied()
            .ok_or_else(|| RuntimeError::NoSuchPool(name.to_string()))
    }

    /// Looks up a pool mutably by name (the scrub/quarantine-release
    /// path operates on pools that may refuse ID-based attach).
    pub fn entry_mut_by_name(&mut self, name: &str) -> Result<&mut PoolEntry> {
        let id = self.id_of(name)?;
        Ok(self.entry_mut(id).expect("name index in sync"))
    }

    /// Destroys a pool and its data. Only the owner may destroy it, and
    /// only while nobody has it attached.
    pub fn destroy(&mut self, name: &str, uid: Uid) -> Result<()> {
        let entry = self.entry_mut_by_name(name)?;
        if entry.owner != uid {
            return Err(RuntimeError::PermissionDenied {
                name: name.to_string(),
                reason: "only the owner may destroy a pool",
            });
        }
        if entry.readers > 0 || entry.writers > 0 {
            return Err(RuntimeError::ExclusivelyHeld(name.to_string()));
        }
        let id = entry.id;
        self.pools[id.raw() as usize] = None;
        self.ids_by_name.remove(name);
        Ok(())
    }

    /// Iterates over registered pool names, in name order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.ids_by_name.keys().map(String::as_str)
    }

    /// Whether a pool with this name exists.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.ids_by_name.contains_key(name)
    }

    /// A pool's current health.
    ///
    /// # Errors
    ///
    /// Fails if no pool with this name exists.
    pub fn health(&self, name: &str) -> Result<PoolHealth> {
        Ok(self.entry(self.id_of(name)?).expect("name index in sync").health())
    }

    /// Number of registered pools.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids_by_name.len()
    }

    /// Whether no pools are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids_by_name.is_empty()
    }

    /// Simulates machine power loss: every pool's unflushed lines revert
    /// and all attachment locks evaporate. Returns total lines lost.
    pub fn crash_all(&mut self) -> u64 {
        let mut lost = 0;
        for entry in self.pools.iter_mut().flatten() {
            lost += entry.storage.crash();
            entry.readers = 0;
            entry.writers = 0;
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_ids_are_stable() {
        let mut ns = Namespace::new();
        let a = ns.create("a", 4096, Mode::private(), 1).unwrap();
        let b = ns.create("b", 4096, Mode::private(), 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(ns.entry(a).unwrap().name, "a");
        assert!(ns.contains("a"));
        assert_eq!(ns.len(), 2);
        assert!(matches!(
            ns.create("a", 4096, Mode::private(), 1),
            Err(RuntimeError::PoolExists(_))
        ));
    }

    #[test]
    fn zero_size_rejected() {
        let mut ns = Namespace::new();
        assert!(matches!(ns.create("z", 0, Mode::private(), 1), Err(RuntimeError::InvalidSize(0))));
    }

    #[test]
    fn permission_mode_enforced() {
        let mut ns = Namespace::new();
        ns.create("secret", 4096, Mode::private(), 1).unwrap();
        // Owner can attach RW.
        let id = ns.acquire("secret", 1, AttachIntent::ReadWrite, None).unwrap();
        ns.release(id, AttachIntent::ReadWrite).unwrap();
        // Other users cannot.
        assert!(matches!(
            ns.acquire("secret", 2, AttachIntent::Read, None),
            Err(RuntimeError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn shared_read_allows_others_reading_only() {
        let mut ns = Namespace::new();
        ns.create("pub", 4096, Mode::shared_read(), 1).unwrap();
        let id = ns.acquire("pub", 2, AttachIntent::Read, None).unwrap();
        ns.release(id, AttachIntent::Read).unwrap();
        assert!(ns.acquire("pub", 2, AttachIntent::ReadWrite, None).is_err());
    }

    #[test]
    fn single_writer_many_readers() {
        let mut ns = Namespace::new();
        ns.create("p", 4096, Mode::shared_write(), 1).unwrap();
        let r1 = ns.acquire("p", 2, AttachIntent::Read, None).unwrap();
        let _r2 = ns.acquire("p", 3, AttachIntent::Read, None).unwrap();
        // Writer blocked while readers exist.
        assert!(matches!(
            ns.acquire("p", 1, AttachIntent::ReadWrite, None),
            Err(RuntimeError::ExclusivelyHeld(_))
        ));
        ns.release(r1, AttachIntent::Read).unwrap();
        ns.release(r1, AttachIntent::Read).unwrap();
        let w = ns.acquire("p", 1, AttachIntent::ReadWrite, None).unwrap();
        // Reader blocked while a writer exists.
        assert!(ns.acquire("p", 2, AttachIntent::Read, None).is_err());
        ns.release(w, AttachIntent::ReadWrite).unwrap();
    }

    #[test]
    fn attach_keys() {
        let mut ns = Namespace::new();
        ns.create("locked", 4096, Mode::shared_write(), 1).unwrap();
        ns.set_attach_key("locked", 1, Some(0xfeed)).unwrap();
        assert!(matches!(
            ns.acquire("locked", 2, AttachIntent::Read, None),
            Err(RuntimeError::WrongAttachKey(_))
        ));
        assert!(matches!(
            ns.acquire("locked", 2, AttachIntent::Read, Some(1)),
            Err(RuntimeError::WrongAttachKey(_))
        ));
        assert!(ns.acquire("locked", 2, AttachIntent::Read, Some(0xfeed)).is_ok());
        // Non-owner cannot change the key.
        assert!(ns.set_attach_key("locked", 2, None).is_err());
    }

    #[test]
    fn crash_releases_locks() {
        let mut ns = Namespace::new();
        ns.create("p", 4096, Mode::private(), 1).unwrap();
        ns.acquire("p", 1, AttachIntent::ReadWrite, None).unwrap();
        ns.crash_all();
        assert!(ns.acquire("p", 1, AttachIntent::ReadWrite, None).is_ok());
    }

    #[test]
    fn destroy_rules() {
        let mut ns = Namespace::new();
        ns.create("p", 4096, Mode::shared_write(), 1).unwrap();
        // Non-owner cannot destroy.
        assert!(matches!(ns.destroy("p", 2), Err(RuntimeError::PermissionDenied { .. })));
        // Attached pools cannot be destroyed.
        let id = ns.acquire("p", 1, AttachIntent::Read, None).unwrap();
        assert!(matches!(ns.destroy("p", 1), Err(RuntimeError::ExclusivelyHeld(_))));
        ns.release(id, AttachIntent::Read).unwrap();
        ns.destroy("p", 1).unwrap();
        assert!(!ns.contains("p"));
        assert!(ns.entry(id).is_err(), "id mapping removed");
        assert_eq!(ns.names().count(), 0);
        // The name can be reused (with a fresh id).
        let id2 = ns.create("p", 4096, Mode::private(), 1).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn quarantined_pools_refuse_attach_until_recreated() {
        let mut ns = Namespace::new();
        ns.create("sick", 4096, Mode::shared_write(), 1).unwrap();
        assert_eq!(ns.entry_mut_by_name("sick").unwrap().health(), PoolHealth::Healthy);
        ns.entry_mut_by_name("sick").unwrap().quarantined = Some("bad magic");
        assert_eq!(ns.entry_mut_by_name("sick").unwrap().health(), PoolHealth::Quarantined);
        assert!(matches!(
            ns.acquire("sick", 1, AttachIntent::ReadWrite, None),
            Err(RuntimeError::PoolQuarantined { reason: "bad magic", .. })
        ));
        // Destroy + recreate yields a fresh, healthy pool.
        ns.destroy("sick", 1).unwrap();
        ns.create("sick", 4096, Mode::shared_write(), 1).unwrap();
        assert!(ns.acquire("sick", 1, AttachIntent::ReadWrite, None).is_ok());
    }

    #[test]
    fn recreated_name_gets_a_fresh_id_and_the_old_id_is_dead() {
        let mut ns = Namespace::new();
        let old = ns.create("p", 4096, Mode::private(), 1).unwrap();
        ns.create("q", 4096, Mode::private(), 1).unwrap();
        ns.destroy("p", 1).unwrap();
        assert!(matches!(ns.entry(old), Err(RuntimeError::NotAttached(id)) if id == old));
        assert!(matches!(ns.entry_mut(old), Err(RuntimeError::NotAttached(id)) if id == old));
        assert!(matches!(ns.release(old, AttachIntent::Read), Err(RuntimeError::NotAttached(_))));
        let new = ns.create("p", 4096, Mode::private(), 1).unwrap();
        assert!(new > old, "ids are never reused");
        assert_eq!(ns.entry(new).unwrap().name, "p");
        assert!(ns.entry(old).is_err(), "the old id stays dead after the name returns");
        assert_eq!(ns.acquire("p", 1, AttachIntent::Read, None).unwrap(), new);
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn names_are_listed_in_name_order() {
        let mut ns = Namespace::new();
        for name in ["mid", "zeta", "alpha", "beta"] {
            ns.create(name, 4096, Mode::private(), 1).unwrap();
        }
        ns.destroy("beta", 1).unwrap();
        ns.create("aaa", 4096, Mode::private(), 1).unwrap();
        assert_eq!(ns.names().collect::<Vec<_>>(), ["aaa", "alpha", "mid", "zeta"]);
    }

    #[test]
    fn crash_all_totals_every_pools_unflushed_lines() {
        let mut ns = Namespace::new();
        let a = ns.create("a", 1 << 16, Mode::private(), 1).unwrap();
        let b = ns.create("b", 1 << 16, Mode::private(), 1).unwrap();
        let gone = ns.create("gone", 1 << 16, Mode::private(), 1).unwrap();
        // a: three unflushed lines, one flushed; b: one line; gone: two
        // lines, but destroyed before the crash.
        let storage = &mut ns.entry_mut(a).unwrap().storage;
        storage.write(0, &[1; 64 * 4]).unwrap();
        storage.flush_line(0);
        ns.entry_mut(b).unwrap().storage.write(4096, &[2; 8]).unwrap();
        ns.entry_mut(gone).unwrap().storage.write(0, &[3; 128]).unwrap();
        ns.destroy("gone", 1).unwrap();
        ns.acquire("a", 1, AttachIntent::ReadWrite, None).unwrap();
        assert_eq!(ns.crash_all(), 4);
        assert_eq!(ns.entry_mut(a).unwrap().readers + ns.entry_mut(a).unwrap().writers, 0);
        assert_eq!(ns.crash_all(), 0, "nothing left to lose");
    }

    #[test]
    fn scrub_and_quarantine_work_by_name() {
        let mut ns = Namespace::new();
        let id = ns.create("sick", 4096, Mode::private(), 1).unwrap();
        ns.create("other", 4096, Mode::private(), 1).unwrap();
        let entry = ns.entry_mut_by_name("sick").unwrap();
        assert_eq!(entry.id, id);
        entry.quarantined = Some("bad magic");
        assert_eq!(ns.health("sick").unwrap(), PoolHealth::Quarantined);
        assert_eq!(ns.health("other").unwrap(), PoolHealth::Healthy);
        assert!(matches!(ns.health("ghost"), Err(RuntimeError::NoSuchPool(_))));
        assert!(matches!(ns.entry_mut_by_name("ghost"), Err(RuntimeError::NoSuchPool(_))));
        let entry = ns.entry_mut_by_name("sick").unwrap();
        entry.storage.scrub();
        assert_eq!(entry.release_quarantine().unwrap(), Some("bad magic"));
        assert_eq!(ns.health("sick").unwrap(), PoolHealth::Healthy);
        assert_eq!(ns.acquire("sick", 1, AttachIntent::ReadWrite, None).unwrap(), id);
    }

    #[test]
    fn missing_pool_errors() {
        let mut ns = Namespace::new();
        assert!(matches!(
            ns.acquire("ghost", 1, AttachIntent::Read, None),
            Err(RuntimeError::NoSuchPool(_))
        ));
        assert!(ns.entry(PmoId::new(99)).is_err());
    }
}
