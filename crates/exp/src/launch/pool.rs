//! Host-health tracking: which hosts may receive work, and how failures
//! move a host through healthy → suspect → quarantined → probation.
//!
//! The pool is deliberately simple state, not policy: the scheduler asks
//! it to [`HostPool::pick`] a host (healthy first, least-loaded, stable
//! tie-break) and feeds back dispatch outcomes; the pool turns
//! consecutive failures into a timed quarantine so a dead or flapping
//! host stops eating retry attempts, and releases it into a *suspect*
//! probation where one success restores full health but one failure
//! re-quarantines immediately. The last host not quarantined is never
//! quarantined: once no other host can take the work, each shard's own
//! attempt budget is the only limit, so a fleet (the one-host `local*N`
//! fleet of `mc coordinate` above all) never stalls out a probation.

use std::time::{Duration, Instant};

/// How many consecutive failures quarantine a host by default.
pub const DEFAULT_QUARANTINE_AFTER: usize = 3;

/// How long a quarantined host sits out by default.
pub const DEFAULT_PROBATION: Duration = Duration::from_secs(30);

/// One host of the fleet: a name (opaque to the launcher — the transport
/// interprets it) plus how many concurrent flights it may carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    /// Host name, handed verbatim to the transport.
    pub name: String,
    /// Concurrent dispatch slots (≥ 1).
    pub slots: usize,
}

impl HostSpec {
    /// Renders the `name*slots` form used in the campaign manifest.
    #[must_use]
    pub fn render(&self) -> String {
        format!("{}*{}", self.name, self.slots)
    }
}

/// Parses the `--hosts` grammar: comma-separated `name[*slots]` entries,
/// slots defaulting to 1. Names must be unique and non-empty, slots ≥ 1.
///
/// # Errors
///
/// Reports empty specs, duplicate names, and malformed slot counts.
pub fn parse_hosts(spec: &str) -> Result<Vec<HostSpec>, String> {
    let mut hosts: Vec<HostSpec> = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(format!("empty host entry in {spec:?}"));
        }
        let (name, slots) = match entry.split_once('*') {
            Some((name, slots)) => (
                name,
                slots
                    .parse::<usize>()
                    .map_err(|_| format!("host {name:?}: slot count {slots:?} is not a number"))?,
            ),
            None => (entry, 1),
        };
        if name.is_empty() {
            return Err(format!("host entry {entry:?} has no name"));
        }
        if slots == 0 {
            return Err(format!("host {name:?} needs at least one slot"));
        }
        if hosts.iter().any(|h| h.name == name) {
            return Err(format!("duplicate host {name:?}"));
        }
        hosts.push(HostSpec {
            name: name.to_owned(),
            slots,
        });
    }
    Ok(hosts)
}

/// A host's health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostHealth {
    /// Last outcome was a success (or no outcome yet): preferred target.
    Healthy,
    /// Recent failure(s), or on probation after a quarantine: still
    /// dispatchable, but only when no healthy host has a free slot.
    Suspect,
    /// Too many consecutive failures: receives no work until its
    /// probation expires.
    Quarantined,
}

/// Per-host dispatch counters, surfaced in the launch report and the
/// service job notes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostCount {
    /// Host name.
    pub name: String,
    /// Flights dispatched to this host (including ones later discarded).
    pub dispatched: usize,
    /// Flights that returned a valid partial that won its shard.
    pub completed: usize,
    /// Flights that failed (dispatch error, bad exit, torn stream,
    /// watchdog kill).
    pub failed: usize,
    /// Times this host was quarantined.
    pub quarantines: usize,
}

#[derive(Debug)]
struct HostState {
    spec: HostSpec,
    health: HostHealth,
    consecutive_failures: usize,
    inflight: usize,
    /// Set while quarantined: when the sit-out ends.
    until: Option<Instant>,
    counters: HostCount,
}

/// The fleet with its health bookkeeping. All methods are O(hosts); the
/// scheduler owns the pool exclusively, so there is no locking here.
#[derive(Debug)]
pub struct HostPool {
    hosts: Vec<HostState>,
    quarantine_after: usize,
    probation: Duration,
}

impl HostPool {
    /// Builds the pool; every host starts healthy with zero counters.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or `quarantine_after` is zero — both
    /// are rejected at the config boundary before a pool exists.
    #[must_use]
    pub fn new(specs: &[HostSpec], quarantine_after: usize, probation: Duration) -> Self {
        assert!(!specs.is_empty(), "need at least one host");
        assert!(quarantine_after > 0, "quarantine threshold must be >= 1");
        Self {
            hosts: specs
                .iter()
                .map(|spec| HostState {
                    spec: spec.clone(),
                    health: HostHealth::Healthy,
                    consecutive_failures: 0,
                    inflight: 0,
                    until: None,
                    counters: HostCount {
                        name: spec.name.clone(),
                        ..HostCount::default()
                    },
                })
                .collect(),
            quarantine_after,
            probation,
        }
    }

    /// The host name at `index`.
    #[must_use]
    pub fn name(&self, index: usize) -> &str {
        &self.hosts[index].spec.name
    }

    /// The current health of the host at `index`.
    #[must_use]
    pub fn health(&self, index: usize) -> HostHealth {
        self.hosts[index].health
    }

    /// Moves expired quarantines into probation: the host becomes
    /// [`HostHealth::Suspect`] with its failure streak *retained*, so the
    /// next failure re-quarantines immediately while a success restores
    /// full health.
    fn refresh(&mut self, now: Instant) {
        for host in &mut self.hosts {
            if host.health == HostHealth::Quarantined
                && host.until.is_some_and(|until| now >= until)
            {
                host.health = HostHealth::Suspect;
                host.until = None;
                host.consecutive_failures = self.quarantine_after.saturating_sub(1);
            }
        }
    }

    /// Picks a host with a free slot: healthy before suspect, then least
    /// in-flight, then lowest index (stable, so tests are deterministic).
    /// Quarantined hosts are never picked. `None` when every host is
    /// full or quarantined.
    pub fn pick(&mut self) -> Option<usize> {
        self.pick_filtered(&|_| true)
    }

    /// Like [`HostPool::pick`] but restricted to hosts where
    /// `allowed(index)` holds — the hedging path uses it to place the
    /// duplicate on a *different* host than the straggler.
    pub fn pick_filtered(&mut self, allowed: &dyn Fn(usize) -> bool) -> Option<usize> {
        self.refresh(Instant::now());
        let mut best: Option<usize> = None;
        for (index, host) in self.hosts.iter().enumerate() {
            if host.health == HostHealth::Quarantined
                || host.inflight >= host.spec.slots
                || !allowed(index)
            {
                continue;
            }
            best = match best {
                None => Some(index),
                Some(current) => {
                    let cur = &self.hosts[current];
                    let healthier =
                        (host.health == HostHealth::Healthy) && cur.health != HostHealth::Healthy;
                    let same_health = host.health == cur.health;
                    if healthier || (same_health && host.inflight < cur.inflight) {
                        Some(index)
                    } else {
                        Some(current)
                    }
                }
            };
        }
        best
    }

    /// Records a dispatch to the host at `index`.
    pub fn note_dispatch(&mut self, index: usize) {
        let host = &mut self.hosts[index];
        host.inflight += 1;
        host.counters.dispatched += 1;
    }

    /// Records a flight that returned a valid, winning partial: the host
    /// is fully healthy again.
    pub fn note_success(&mut self, index: usize) {
        let host = &mut self.hosts[index];
        host.inflight = host.inflight.saturating_sub(1);
        host.consecutive_failures = 0;
        host.health = HostHealth::Healthy;
        host.until = None;
        host.counters.completed += 1;
    }

    /// Records a failed flight (or dispatch error): the host turns
    /// suspect, and after `quarantine_after` *consecutive* failures it is
    /// quarantined for the probation duration — unless every other host
    /// already is, in which case it stays suspect and dispatchable.
    pub fn note_failure(&mut self, index: usize) {
        let others_available = self
            .hosts
            .iter()
            .enumerate()
            .any(|(i, h)| i != index && h.health != HostHealth::Quarantined);
        let host = &mut self.hosts[index];
        host.inflight = host.inflight.saturating_sub(1);
        host.consecutive_failures += 1;
        host.counters.failed += 1;
        if host.consecutive_failures >= self.quarantine_after && others_available {
            host.health = HostHealth::Quarantined;
            host.until = Some(Instant::now() + self.probation);
            host.counters.quarantines += 1;
        } else {
            host.health = HostHealth::Suspect;
        }
    }

    /// Records a discarded flight — a hedge loser cancelled after its
    /// sibling won, or a late result for an already-done shard. Frees the
    /// slot without blaming the host either way.
    pub fn note_discard(&mut self, index: usize) {
        let host = &mut self.hosts[index];
        host.inflight = host.inflight.saturating_sub(1);
    }

    /// A snapshot of every host's counters, in fleet order.
    #[must_use]
    pub fn counts(&self) -> Vec<HostCount> {
        self.hosts.iter().map(|h| h.counters.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(spec: &str) -> Vec<HostSpec> {
        parse_hosts(spec).expect("valid spec")
    }

    #[test]
    fn hosts_grammar_parses_slots_and_rejects_junk() {
        let hosts = fleet("alpha*2, beta");
        assert_eq!(hosts.len(), 2);
        assert_eq!((hosts[0].name.as_str(), hosts[0].slots), ("alpha", 2));
        assert_eq!((hosts[1].name.as_str(), hosts[1].slots), ("beta", 1));
        assert_eq!(hosts[0].render(), "alpha*2");
        for bad in ["", "a,,b", "a*0", "a*x", "a,a", "*3"] {
            assert!(parse_hosts(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn pick_prefers_healthy_then_least_loaded_then_lowest_index() {
        let mut pool = HostPool::new(&fleet("a*2,b*3"), 3, Duration::from_secs(30));
        assert_eq!(pool.pick(), Some(0), "tie: lowest index");
        pool.note_dispatch(0);
        assert_eq!(pool.pick(), Some(1), "least in-flight");
        pool.note_dispatch(1);
        assert_eq!(pool.pick(), Some(0), "tie again at 1 in-flight each");
        // One failure makes `a` suspect: healthy `b` wins despite load.
        pool.note_failure(0);
        pool.note_dispatch(1);
        assert_eq!(pool.pick(), Some(1), "healthy beats suspect");
        pool.note_dispatch(1);
        // `b` is now full: the suspect host is still dispatchable.
        assert_eq!(pool.pick(), Some(0), "suspect used when healthy is full");
    }

    #[test]
    fn consecutive_failures_quarantine_and_success_resets_the_streak() {
        let mut pool = HostPool::new(&fleet("a,b*3"), 2, Duration::from_secs(60));
        pool.note_dispatch(0);
        pool.note_failure(0);
        assert_eq!(pool.health(0), HostHealth::Suspect);
        // A success wipes the streak: two more failures are needed.
        pool.note_dispatch(0);
        pool.note_success(0);
        assert_eq!(pool.health(0), HostHealth::Healthy);
        pool.note_dispatch(0);
        pool.note_failure(0);
        pool.note_dispatch(0);
        pool.note_failure(0);
        assert_eq!(pool.health(0), HostHealth::Quarantined);
        assert_eq!(pool.counts()[0].quarantines, 1);
        // A quarantined host is never picked.
        for _ in 0..3 {
            assert_eq!(pool.pick(), Some(1));
            pool.note_dispatch(1);
        }
        assert_eq!(pool.pick(), None, "b is full, a is quarantined");
    }

    #[test]
    fn the_last_available_host_is_never_quarantined() {
        let mut pool = HostPool::new(&fleet("a,b"), 2, Duration::from_secs(3600));
        for _ in 0..2 {
            pool.note_dispatch(0);
            pool.note_failure(0);
        }
        assert_eq!(pool.health(0), HostHealth::Quarantined);
        // `b` is now the only host left: failing well past the threshold
        // keeps it suspect and dispatchable instead of stalling the fleet
        // for an hour of probation.
        for _ in 0..5 {
            assert_eq!(pool.pick(), Some(1));
            pool.note_dispatch(1);
            pool.note_failure(1);
            assert_eq!(pool.health(1), HostHealth::Suspect);
        }
        assert_eq!(pool.counts()[1].quarantines, 0);
        // A one-host fleet is the degenerate case of the same rule.
        let mut solo = HostPool::new(&fleet("local*2"), 1, Duration::from_secs(3600));
        solo.note_dispatch(0);
        solo.note_failure(0);
        assert_eq!(solo.health(0), HostHealth::Suspect);
        assert_eq!(solo.pick(), Some(0));
    }

    #[test]
    fn probation_expiry_releases_as_suspect_with_one_strike_left() {
        // `b` stays healthy and busy throughout, so `a` is never the last
        // available host and the quarantine rule applies to it in full.
        let mut pool = HostPool::new(&fleet("a,b"), 2, Duration::from_millis(30));
        pool.note_dispatch(1);
        pool.note_dispatch(0);
        pool.note_failure(0);
        pool.note_dispatch(0);
        pool.note_failure(0);
        assert_eq!(pool.health(0), HostHealth::Quarantined);
        assert_eq!(pool.pick(), None, "a sits out its probation, b is full");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(pool.pick(), Some(0), "probation expired");
        assert_eq!(pool.health(0), HostHealth::Suspect);
        // One more failure re-quarantines immediately (streak retained)…
        pool.note_dispatch(0);
        pool.note_failure(0);
        assert_eq!(pool.health(0), HostHealth::Quarantined);
        assert_eq!(pool.counts()[0].quarantines, 2);
        // …while a success would have restored full health.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(pool.pick(), Some(0));
        pool.note_dispatch(0);
        pool.note_success(0);
        assert_eq!(pool.health(0), HostHealth::Healthy);
        assert_eq!(pool.health(1), HostHealth::Healthy);
    }

    #[test]
    fn filtered_pick_and_discard_support_hedging() {
        let mut pool = HostPool::new(&fleet("a,b"), 3, Duration::from_secs(30));
        pool.note_dispatch(0);
        // The hedge must land on a different host than the straggler.
        assert_eq!(pool.pick_filtered(&|i| i != 0), Some(1));
        pool.note_dispatch(1);
        // Discarding the loser frees the slot without blame.
        pool.note_discard(0);
        assert_eq!(pool.health(0), HostHealth::Healthy);
        assert_eq!(pool.counts()[0].dispatched, 1);
        assert_eq!(pool.counts()[0].failed, 0);
        assert_eq!(pool.pick_filtered(&|i| i != 1), Some(0));
    }
}
