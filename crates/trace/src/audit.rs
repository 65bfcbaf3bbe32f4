//! Static permission-window auditing of traces.
//!
//! The paper's security argument (§VI.D) rests on a discipline the
//! *program* must follow: permissions are enabled right before PMO work
//! and disabled right after, so that "at most two PMOs are enabled" at
//! any time and vulnerabilities are confined to the open window. ERIM
//! enforces the analogous property for WRPKRU sites by binary
//! inspection. [`PermAudit`] is the trace-level analogue: it scans an
//! instruction stream and reports every violation of the window
//! discipline, without running a simulator.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use crate::{Perm, PmoId, ThreadId, TraceEvent, TraceSink, Va};

/// A violation of the permission-window discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// A thread accessed an attached PMO without holding a sufficient
    /// grant at that point of the trace.
    UnguardedAccess {
        /// The accessing thread.
        thread: ThreadId,
        /// The PMO accessed.
        pmo: PmoId,
        /// The faulting address.
        va: Va,
        /// Whether the access was a write.
        write: bool,
    },
    /// A thread held more than the allowed number of simultaneously
    /// enabled domains (the paper argues for at most two).
    TooManyOpenWindows {
        /// The offending thread.
        thread: ThreadId,
        /// How many domains were enabled after this grant.
        open: usize,
    },
    /// A grant was still open when the trace ended (a missing revoke:
    /// the window never closed).
    WindowLeftOpen {
        /// The thread holding the grant.
        thread: ThreadId,
        /// The domain still enabled.
        pmo: PmoId,
    },
    /// A PMO was detached while some thread still held a grant on it.
    DetachedWhileGranted {
        /// The thread holding the grant.
        thread: ThreadId,
        /// The detached PMO.
        pmo: PmoId,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::UnguardedAccess { thread, pmo, va, write } => write!(
                f,
                "thread {thread} {} pmo {pmo} at {va:#x} outside a permission window",
                if *write { "wrote" } else { "read" }
            ),
            AuditViolation::TooManyOpenWindows { thread, open } => {
                write!(f, "thread {thread} holds {open} simultaneously enabled domains")
            }
            AuditViolation::WindowLeftOpen { thread, pmo } => {
                write!(f, "thread {thread} left pmo {pmo} enabled at end of trace")
            }
            AuditViolation::DetachedWhileGranted { thread, pmo } => {
                write!(f, "pmo {pmo} detached while thread {thread} still held a grant")
            }
        }
    }
}

/// A [`TraceSink`] that audits permission-window hygiene.
///
/// Feed a trace through it (alone, or tee'd with the simulator) and call
/// [`PermAudit::finish`] for the violation list.
///
/// A permission switch costs one grant-map update, with a per-thread
/// count of open grants in place of a scan of all grants, and two
/// one-entry caches answer a run of accesses to one region under one
/// grant in O(1). The caches are dropped by exactly the
/// events that can change their answer: the region cache by `Attach` and
/// `Detach`, the grant cache by `Detach` and `ThreadSwitch`; `SetPerm`
/// rewrites the grant cache with the grant it just set.
#[derive(Debug)]
pub struct PermAudit {
    /// Attached regions: base -> (end, pmo).
    regions: BTreeMap<Va, (Va, PmoId)>,
    /// Open grants: (thread, pmo) -> perm.
    grants: BTreeMap<(ThreadId, PmoId), Perm>,
    /// Number of entries of `grants` per thread (threads that never held
    /// a grant have none).
    open: BTreeMap<ThreadId, usize>,
    /// Last region lookup that hit: every address in `[lo, hi)` lies in
    /// `pmo`'s region.
    region_hit: Option<(Va, Va, PmoId)>,
    /// The current thread's grant on one PMO (`Perm::None` if it holds
    /// none).
    grant_hit: Option<(PmoId, Perm)>,
    current: ThreadId,
    max_open_windows: usize,
    violations: Vec<AuditViolation>,
}

impl Default for PermAudit {
    fn default() -> Self {
        Self::new()
    }
}

impl PermAudit {
    /// Creates an auditor with the paper's "at most two enabled PMOs"
    /// discipline.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_open_windows(2)
    }

    /// Creates an auditor allowing up to `max` simultaneously enabled
    /// domains per thread.
    #[must_use]
    pub fn with_max_open_windows(max: usize) -> Self {
        PermAudit {
            regions: BTreeMap::new(),
            grants: BTreeMap::new(),
            open: BTreeMap::new(),
            region_hit: None,
            grant_hit: None,
            current: ThreadId::MAIN,
            max_open_windows: max,
            violations: Vec::new(),
        }
    }

    fn pmo_at(&mut self, va: Va) -> Option<PmoId> {
        if let Some((lo, hi, pmo)) = self.region_hit {
            if lo <= va && va < hi {
                return Some(pmo);
            }
        }
        let (&base, &(end, pmo)) = self.regions.range(..=va).next_back()?;
        if va >= end {
            return None;
        }
        // The answer holds up to the next region's base: past it, that
        // (overlapping) region is the one the lookup finds.
        let hi = self
            .regions
            .range((Bound::Excluded(base), Bound::Unbounded))
            .next()
            .map_or(end, |(&next, _)| next.min(end));
        self.region_hit = Some((base, hi, pmo));
        Some(pmo)
    }

    fn held(&mut self, pmo: PmoId) -> Perm {
        match self.grant_hit {
            Some((cached, perm)) if cached == pmo => perm,
            _ => {
                let perm = self.grants.get(&(self.current, pmo)).copied().unwrap_or(Perm::None);
                self.grant_hit = Some((pmo, perm));
                perm
            }
        }
    }

    fn check_access(&mut self, va: Va, write: bool) {
        let Some(pmo) = self.pmo_at(va) else { return };
        let held = self.held(pmo);
        let ok = if write { held.allows_write() } else { held.allows_read() };
        if !ok {
            self.violations.push(AuditViolation::UnguardedAccess {
                thread: self.current,
                pmo,
                va,
                write,
            });
        }
    }

    /// Violations found so far.
    #[must_use]
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Ends the audit: any still-open window is itself a violation.
    #[must_use]
    pub fn finish(mut self) -> Vec<AuditViolation> {
        for &(thread, pmo) in self.grants.keys() {
            self.violations.push(AuditViolation::WindowLeftOpen { thread, pmo });
        }
        self.violations
    }
}

impl TraceSink for PermAudit {
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Attach { pmo, base, size, .. } => {
                self.regions.insert(base, (base + size, pmo));
                self.region_hit = None;
            }
            TraceEvent::Detach { pmo } => {
                self.regions.retain(|_, (_, p)| *p != pmo);
                self.region_hit = None;
                self.grant_hit = None;
                for (&thread, open) in &mut self.open {
                    if self.grants.remove(&(thread, pmo)).is_some() {
                        *open -= 1;
                        self.violations.push(AuditViolation::DetachedWhileGranted { thread, pmo });
                    }
                }
            }
            TraceEvent::SetPerm { pmo, perm } => {
                let key = (self.current, pmo);
                if perm == Perm::None {
                    if self.grants.remove(&key).is_some() {
                        *self.open.get_mut(&self.current).expect("counted on insert") -= 1;
                    }
                } else {
                    let open = self.open.entry(self.current).or_insert(0);
                    if self.grants.insert(key, perm).is_none() {
                        *open += 1;
                    }
                    if *open > self.max_open_windows {
                        self.violations.push(AuditViolation::TooManyOpenWindows {
                            thread: self.current,
                            open: *open,
                        });
                    }
                }
                self.grant_hit = Some((pmo, perm));
            }
            TraceEvent::ThreadSwitch { thread } => {
                self.current = thread;
                self.grant_hit = None;
            }
            TraceEvent::Load { va, .. } => self.check_access(va, false),
            TraceEvent::Store { va, .. } | TraceEvent::StoreData { va, .. } => {
                self.check_access(va, true);
            }
            _ => {}
        }
    }
}

/// The auditor as first written: every question answered by searching
/// or scanning the full region and grant maps, no counts, no caches.
/// Kept as the reference the O(1) [`PermAudit`] is checked against.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug)]
    pub(super) struct ScanAudit {
        regions: BTreeMap<Va, (Va, PmoId)>,
        grants: BTreeMap<(ThreadId, PmoId), Perm>,
        current: ThreadId,
        max_open_windows: usize,
        pub(super) violations: Vec<AuditViolation>,
    }

    impl ScanAudit {
        pub(super) fn with_max_open_windows(max: usize) -> Self {
            ScanAudit {
                regions: BTreeMap::new(),
                grants: BTreeMap::new(),
                current: ThreadId::MAIN,
                max_open_windows: max,
                violations: Vec::new(),
            }
        }

        fn check_access(&mut self, va: Va, write: bool) {
            let Some((_, &(end, pmo))) = self.regions.range(..=va).next_back() else { return };
            if va >= end {
                return;
            }
            let held = self.grants.get(&(self.current, pmo)).copied().unwrap_or(Perm::None);
            let ok = if write { held.allows_write() } else { held.allows_read() };
            if !ok {
                let thread = self.current;
                self.violations.push(AuditViolation::UnguardedAccess { thread, pmo, va, write });
            }
        }

        pub(super) fn finish(mut self) -> Vec<AuditViolation> {
            let mut open: Vec<(ThreadId, PmoId)> = self.grants.keys().copied().collect();
            open.sort_unstable();
            for (thread, pmo) in open {
                self.violations.push(AuditViolation::WindowLeftOpen { thread, pmo });
            }
            self.violations
        }
    }

    impl TraceSink for ScanAudit {
        fn event(&mut self, ev: TraceEvent) {
            match ev {
                TraceEvent::Attach { pmo, base, size, .. } => {
                    self.regions.insert(base, (base + size, pmo));
                }
                TraceEvent::Detach { pmo } => {
                    self.regions.retain(|_, (_, p)| *p != pmo);
                    let holders: Vec<ThreadId> =
                        self.grants.keys().filter(|(_, p)| *p == pmo).map(|(t, _)| *t).collect();
                    for thread in holders {
                        self.grants.remove(&(thread, pmo));
                        self.violations.push(AuditViolation::DetachedWhileGranted { thread, pmo });
                    }
                }
                TraceEvent::SetPerm { pmo, perm } => {
                    if perm == Perm::None {
                        self.grants.remove(&(self.current, pmo));
                    } else {
                        self.grants.insert((self.current, pmo), perm);
                        let thread = self.current;
                        let open = self.grants.keys().filter(|(t, _)| *t == thread).count();
                        if open > self.max_open_windows {
                            self.violations
                                .push(AuditViolation::TooManyOpenWindows { thread, open });
                        }
                    }
                }
                TraceEvent::ThreadSwitch { thread } => self.current = thread,
                TraceEvent::Load { va, .. } => self.check_access(va, false),
                TraceEvent::Store { va, .. } | TraceEvent::StoreData { va, .. } => {
                    self.check_access(va, true);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BASE: Va = 0x1000;

    /// Random audit traces over a small world, so that regions overlap,
    /// get re-attached at the same base, and accesses land inside,
    /// between and outside them: five PMOs, three threads, region bases
    /// on a 2 KiB grid below 16 KiB, sizes of 2-8 KiB.
    fn arb_audit_event() -> impl Strategy<Value = TraceEvent> {
        prop_oneof![
            3 => (1u32..6, 0u64..6, 1u64..5, any::<bool>()).prop_map(|(pmo, slot, pages, nvm)| {
                TraceEvent::Attach { pmo: PmoId::new(pmo), base: slot * 0x800, size: pages * 0x800, nvm }
            }),
            2 => (1u32..6).prop_map(|pmo| TraceEvent::Detach { pmo: PmoId::new(pmo) }),
            8 => (1u32..6, 0u8..3).prop_map(|(pmo, code)| TraceEvent::SetPerm {
                pmo: PmoId::new(pmo),
                perm: [Perm::None, Perm::ReadOnly, Perm::ReadWrite][code as usize],
            }),
            2 => (0u32..3).prop_map(|t| TraceEvent::ThreadSwitch { thread: ThreadId::new(t) }),
            10 => (0u64..0x4000).prop_map(|va| TraceEvent::Load { va, size: 8 }),
            6 => (0u64..0x4000).prop_map(|va| TraceEvent::Store { va, size: 8 }),
            4 => (0u64..0x4000, any::<u64>())
                .prop_map(|(va, data)| TraceEvent::StoreData { va, size: 8, data }),
            1 => Just(TraceEvent::Fence),
        ]
    }

    fn assert_matches_reference(events: &[TraceEvent], cap: usize) -> Result<(), TestCaseError> {
        let mut fast = PermAudit::with_max_open_windows(cap);
        let mut oracle = reference::ScanAudit::with_max_open_windows(cap);
        for (i, ev) in events.iter().enumerate() {
            fast.event(*ev);
            oracle.event(*ev);
            prop_assert_eq!(
                fast.violations(),
                &oracle.violations[..],
                "after event {} {:?}",
                i,
                ev
            );
        }
        prop_assert_eq!(fast.finish(), oracle.finish());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn audit_matches_scanning_reference(
            events in prop::collection::vec(arb_audit_event(), 0..300),
        ) {
            assert_matches_reference(&events, 2)?;
            assert_matches_reference(&events, usize::MAX)?;
        }
    }

    #[test]
    fn reference_agrees_on_every_planted_pattern() {
        let pmo = PmoId::new;
        let set = |p: u32, perm| TraceEvent::SetPerm { pmo: pmo(p), perm };
        let attach =
            |p: u32, base| TraceEvent::Attach { pmo: pmo(p), base, size: 0x1000, nvm: true };
        let events = [
            attach(1, BASE),
            TraceEvent::Store { va: BASE + 8, size: 8 }, // no grant
            set(1, Perm::ReadOnly),
            TraceEvent::Load { va: BASE + 8, size: 8 },
            TraceEvent::Store { va: BASE + 8, size: 8 }, // read-only grant
            set(1, Perm::ReadWrite),                     // upgrade in place
            TraceEvent::Store { va: BASE + 8, size: 8 },
            TraceEvent::ThreadSwitch { thread: ThreadId::new(1) },
            TraceEvent::Load { va: BASE + 8, size: 8 }, // other thread, no grant
            set(1, Perm::ReadOnly),
            TraceEvent::Detach { pmo: pmo(1) }, // both threads still granted
            TraceEvent::Load { va: BASE + 8, size: 8 }, // outside any region now
            attach(2, BASE),                    // re-attach at the same base
            TraceEvent::Load { va: BASE + 8, size: 8 },
            set(2, Perm::ReadOnly),
            set(3, Perm::ReadOnly),
            set(4, Perm::ReadOnly), // third open window
            set(3, Perm::None),
            TraceEvent::ThreadSwitch { thread: ThreadId::MAIN },
            TraceEvent::Load { va: BASE + 8, size: 8 },
        ];
        for cap in [2, usize::MAX] {
            assert_matches_reference(&events, cap).unwrap();
        }
        let mut audit = PermAudit::new();
        for ev in events {
            audit.event(ev);
        }
        let kinds: Vec<&'static str> = audit
            .finish()
            .iter()
            .map(|v| match v {
                AuditViolation::UnguardedAccess { .. } => "unguarded",
                AuditViolation::TooManyOpenWindows { .. } => "too-many",
                AuditViolation::WindowLeftOpen { .. } => "left-open",
                AuditViolation::DetachedWhileGranted { .. } => "detached",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "unguarded",
                "unguarded",
                "unguarded",
                "detached",
                "detached",
                "unguarded",
                "too-many",
                "unguarded",
                "left-open",
                "left-open"
            ]
        );
    }

    fn attach(audit: &mut PermAudit, pmo: u32, base: Va) {
        audit.event(TraceEvent::Attach { pmo: PmoId::new(pmo), base, size: 0x1000, nvm: true });
    }

    #[test]
    fn clean_window_passes() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        audit.store(BASE + 8, 8);
        audit.load(BASE + 8, 8);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::None });
        assert!(audit.finish().is_empty());
    }

    #[test]
    fn detects_unguarded_access() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.load(BASE, 8); // no grant at all
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadOnly });
        audit.store(BASE, 8); // read-only grant, write access
        let violations = audit.violations().to_vec();
        assert_eq!(violations.len(), 2);
        assert!(matches!(violations[0], AuditViolation::UnguardedAccess { write: false, .. }));
        assert!(matches!(violations[1], AuditViolation::UnguardedAccess { write: true, .. }));
    }

    #[test]
    fn detects_too_many_open_windows() {
        let mut audit = PermAudit::new(); // max 2
        for i in 1..=3u32 {
            attach(&mut audit, i, BASE * u64::from(i) * 2);
            audit.event(TraceEvent::SetPerm { pmo: PmoId::new(i), perm: Perm::ReadOnly });
        }
        assert!(audit
            .violations()
            .iter()
            .any(|v| matches!(v, AuditViolation::TooManyOpenWindows { open: 3, .. })));
    }

    #[test]
    fn detects_leaked_window_at_end() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        let violations = audit.finish();
        assert_eq!(
            violations,
            vec![AuditViolation::WindowLeftOpen { thread: ThreadId::MAIN, pmo: PmoId::new(1) }]
        );
    }

    #[test]
    fn grants_are_per_thread() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        audit.event(TraceEvent::ThreadSwitch { thread: ThreadId::new(1) });
        audit.load(BASE, 8); // thread 1 never got a grant
        assert_eq!(audit.violations().len(), 1);
        // Back on the granting thread: fine.
        audit.event(TraceEvent::ThreadSwitch { thread: ThreadId::MAIN });
        audit.load(BASE, 8);
        assert_eq!(audit.violations().len(), 1);
    }

    #[test]
    fn detects_detach_with_open_grant() {
        let mut audit = PermAudit::new();
        attach(&mut audit, 1, BASE);
        audit.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
        audit.event(TraceEvent::Detach { pmo: PmoId::new(1) });
        assert!(matches!(audit.violations()[0], AuditViolation::DetachedWhileGranted { .. }));
        // The grant is gone with the detach; the trace can end cleanly.
        assert_eq!(audit.finish().len(), 1);
    }

    #[test]
    fn violation_display_is_descriptive() {
        let violations = [
            AuditViolation::UnguardedAccess {
                thread: ThreadId::MAIN,
                pmo: PmoId::new(1),
                va: 0x1000,
                write: true,
            },
            AuditViolation::TooManyOpenWindows { thread: ThreadId::MAIN, open: 3 },
            AuditViolation::WindowLeftOpen { thread: ThreadId::MAIN, pmo: PmoId::new(1) },
            AuditViolation::DetachedWhileGranted { thread: ThreadId::MAIN, pmo: PmoId::new(1) },
        ];
        for v in violations {
            assert!(!format!("{v}").is_empty());
        }
    }
}
