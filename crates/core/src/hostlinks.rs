//! # Who keeps Host-KV's links up (§III-D)
//!
//! A Host-KV dials out for three reasons: a master introduces itself to
//! its Nic-KV (`Hello`), a replica asks its upstream for a sync (a
//! `SyncRequest` to Nic-KV, or to the master in the baselines), and a
//! master opens a channel to a replica to carry a sync transfer. Each dial
//! can fail and is retried with a capped doubling backoff. On top of
//! that sits the paper's failure handling: a master whose Nic-KV goes
//! quiet falls back to host-driven fan-out and re-offloads when the SoC
//! answers again; a synced replica that hears nothing from the SoC tears
//! its channel down and re-registers.
//!
//! [`HostLinks`] owns every decision of that policy: which dials are
//! wanted and what role and frames each connection takes once it is up,
//! the attempt counts, the upstream target, the two liveness clocks, the
//! redial rate limit, and whether the master is degraded. It does no IO
//! and reads no clock: the actor around it ([`crate::server::KvServer`])
//! passes in what only it knows — is this server a master, is a channel
//! open, `now` — and carries the answers out: it connects, closes, sends,
//! sets timers and counts. The same split as
//! [`crate::replsink::ReplSink`] (DESIGN.md §31).

use skv_netsim::{DetMap, Frame, SocketAddr};
use skv_simcore::{SimDuration, SimTime};

use crate::config::{ClusterConfig, Mode};

/// How often a degraded master redials its Nic-KV from cron.
const NIC_RETRY: SimDuration = SimDuration::from_millis(500);

/// How often a replica with no channel to Nic-KV re-registers from cron.
const REREGISTER: SimDuration = SimDuration::from_secs(1);

/// What a connection is for (learned from traffic or from the dial that
/// opened it).
#[derive(Default, PartialEq)]
pub(crate) enum ConnKind {
    /// A client's, or a channel nothing has named yet.
    #[default]
    Unknown,
    /// A channel to or from Nic-KV; a replica's dial to its upstream is
    /// one even when it reaches the master.
    Nic,
    /// A master's channel to the synced replica at this address.
    Slave(SocketAddr),
    /// A replica's channel from its master.
    Master,
}

/// Why a dial was made: the role its connection takes, and the frames
/// that leave on it once it is up.
pub(crate) type Intent = (ConnKind, Vec<(u32, Frame)>);

/// Dial this address again after this long.
pub(crate) type Redial = (SocketAddr, SimDuration);

/// The master's answer to a quiet Nic-KV, carried out in field order.
pub(crate) struct Fallback {
    /// A degraded period opened: count it and close what is left of the
    /// Nic channel.
    pub degraded: bool,
    /// Dial Nic-KV here and introduce this master.
    pub dial: Option<SocketAddr>,
}

/// A Host-KV's dial intents, backoff and Nic-KV liveness.
#[derive(Default)]
pub struct HostLinks {
    cfg: ClusterConfig,
    /// Dials wanted, keyed by remote address; an entry lives until its
    /// connection is up or its retries run out.
    intents: DetMap<SocketAddr, Intent>,
    /// Consecutive failed dials per address.
    attempts: DetMap<SocketAddr, u32>,
    /// The SLAVEOF target `(master, nic)`; kept through a promotion so a
    /// demotion can rejoin it.
    slave_of: Option<(SocketAddr, Option<SocketAddr>)>,
    /// The master's Nic-KV, from `ConnectNic`.
    nic: Option<SocketAddr>,
    /// Master: replication fans out from the host until the SoC is back.
    degraded: bool,
    periods: Vec<(SimTime, Option<SimTime>)>,
    /// Last traffic from Nic-KV: the master's, and a replica's.
    nic_seen: Option<SimTime>,
    upstream_seen: Option<SimTime>,
    /// No cron redial or re-registration before this.
    next_retry: SimTime,
}

impl HostLinks {
    /// The links of a server configured by `cfg`.
    pub(crate) fn new(cfg: &ClusterConfig) -> Self {
        HostLinks {
            cfg: cfg.clone(),
            ..HostLinks::default()
        }
    }

    /// Is the master running host-driven fan-out because its Nic-KV is
    /// unreachable?
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Degraded windows `(entered, exited)`, oldest first.
    pub fn degraded_periods(&self) -> &[(SimTime, Option<SimTime>)] {
        &self.periods
    }

    /// A replica's `(master, nic)` upstream; a master has none.
    pub(crate) fn upstream(&self, master: bool) -> Option<(SocketAddr, Option<SocketAddr>)> {
        self.slave_of.filter(|_| !master)
    }

    /// `SLAVEOF master`, syncing through `nic` when offloading is in use.
    pub(crate) fn follow(&mut self, master: SocketAddr, nic: Option<SocketAddr>) {
        self.slave_of = Some((master, nic));
    }

    /// Dial `to`, replacing any intent for it. The caller connects.
    pub(crate) fn want(&mut self, to: SocketAddr, intent: Intent) {
        self.intents.insert(to, intent);
    }

    /// Is a dial to `to` wanted (a `Redial` for it still due)?
    pub(crate) fn wants(&self, to: SocketAddr) -> bool {
        self.intents.contains_key(&to)
    }

    /// No channel to `to` (`open` is the caller's word for that) and no
    /// dial pending for it.
    fn unreached(&self, to: SocketAddr, open: bool) -> bool {
        !open && !self.wants(to)
    }

    /// The master's Nic-KV, to dial — unless it is unknown or a dial to it
    /// is already pending.
    fn nic_dial(&self) -> Option<SocketAddr> {
        self.nic.filter(|&nic| !self.wants(nic))
    }

    /// `ConnectNic`: remember the master's Nic-KV, start its silence clock
    /// and dial it.
    pub(crate) fn connect_nic(&mut self, nic: SocketAddr, now: SimTime) -> Option<SocketAddr> {
        self.nic = Some(nic);
        self.nic_seen = Some(now);
        self.nic_dial()
    }

    /// Drop the dial to `to` and its attempt count.
    fn forget(&mut self, to: SocketAddr) -> Option<Intent> {
        self.attempts.remove(&to);
        self.intents.remove(&to)
    }

    /// A connection to `peer` is up: the intent it was dialled for, or an
    /// unnamed connection with nothing to send.
    pub(crate) fn established(&mut self, peer: SocketAddr) -> Intent {
        self.forget(peer).unwrap_or_default()
    }

    /// A dial to `to` was refused: where to dial again, and after how long.
    /// `link` says whether a replica has any channel to its master. A
    /// replica that failed to reach Nic-KV twice, with no master link,
    /// re-aims the dial at the master. Past `reconnect_max_attempts` the
    /// dial is given up (cron seeds the long-lived ones again).
    pub(crate) fn refused(&mut self, to: SocketAddr, master: bool, link: bool) -> Option<Redial> {
        if !self.wants(to) {
            return None;
        }
        let attempts = self.attempts.or_insert(to, 0);
        *attempts += 1;
        let attempts = *attempts;
        if let Some((m, Some(nic))) = self.upstream(master) {
            if to == nic && attempts >= 2 && m != nic && self.unreached(m, link) {
                let intent = self.forget(to).unwrap_or_default();
                self.want(m, intent);
                return Some((m, self.cfg.reconnect_base));
            }
        }
        if attempts > self.cfg.reconnect_max_attempts {
            self.forget(to);
            return None;
        }
        Some((to, self.cfg.reconnect_delay(attempts)))
    }

    /// Open a degraded period, unless one is open.
    fn degrade(&mut self, now: SimTime) -> bool {
        let fresh = !std::mem::replace(&mut self.degraded, true);
        if fresh {
            self.periods.push((now, None));
        }
        fresh
    }

    /// An SKV master's channel to Nic-KV broke: degrade, and redial.
    pub(crate) fn nic_lost(&mut self, now: SimTime) -> Fallback {
        let degraded = self.degrade(now);
        let dial = self.nic_dial();
        Fallback { degraded, dial }
    }

    /// Traffic on a Nic channel proves the SoC alive; a degraded master
    /// re-offloads and the period closes.
    pub(crate) fn nic_heard(&mut self, master: bool, now: SimTime) {
        if !master {
            return self.upstream_heard(now);
        }
        self.nic_seen = Some(now);
        if let (true, Some(last)) = (std::mem::take(&mut self.degraded), self.periods.last_mut()) {
            last.1 = Some(now);
        }
    }

    /// Restart a replica's silence clock.
    pub(crate) fn upstream_heard(&mut self, now: SimTime) {
        self.upstream_seen = Some(now);
    }

    /// Has the clock `seen` gone past `upstream_silence`?
    fn silent(&self, seen: Option<SimTime>, now: SimTime) -> bool {
        seen.is_some_and(|seen| now - seen > self.cfg.upstream_silence)
    }

    /// Cron on an SKV master: silence degrades; while degraded, Nic-KV is
    /// redialled at most every [`NIC_RETRY`].
    pub(crate) fn master_cron(&mut self, now: SimTime) -> Fallback {
        let degraded = self.silent(self.nic_seen, now) && self.degrade(now);
        let mut dial = None;
        if self.degraded && now >= self.next_retry {
            self.next_retry = now + NIC_RETRY;
            dial = self.nic_dial();
        }
        Fallback { degraded, dial }
    }

    /// The Nic-KV a replica watches from cron: its upstream's, while it is
    /// `synced`.
    pub(crate) fn watched_nic(&self, synced: bool) -> Option<SocketAddr> {
        self.slave_of.and_then(|(_, nic)| nic).filter(|_| synced)
    }

    /// Cron on a synced replica: has Nic-KV been silent too long? Then the
    /// caller tears down the channel it has `open` to it (an index); with
    /// none open the clock just restarts.
    pub(crate) fn upstream_silent(&mut self, now: SimTime, open: Option<usize>) -> Option<usize> {
        if !self.silent(self.upstream_seen, now) {
            return None;
        }
        if open.is_none() {
            self.upstream_heard(now);
        }
        open
    }

    /// Cron on a synced replica: with no channel to `nic` and no dial
    /// pending, re-register — a recovered SoC has forgotten this replica —
    /// at most every [`REREGISTER`].
    pub(crate) fn reregister_due(&mut self, nic: SocketAddr, open: bool, now: SimTime) -> bool {
        let due = self.unreached(nic, open) && now >= self.next_retry;
        if due {
            self.next_retry = now + REREGISTER;
        }
        due
    }

    /// `Recover`: the clocks restart, and the attempt counts and intents
    /// are forgotten. The crash lost every failure and `Redial` due to the
    /// old dials, so an intent kept here would block its address for good.
    /// An SKV master re-registers with its Nic-KV: the address to close
    /// the stale channel to and dial again.
    pub(crate) fn restart(&mut self, now: SimTime, master: bool) -> Option<SocketAddr> {
        self.nic_seen = Some(now);
        self.upstream_seen = Some(now);
        self.attempts.clear();
        self.intents.clear();
        self.next_retry = now;
        self.nic_dial()
            .filter(|_| master && self.cfg.mode == Mode::Skv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use skv_netsim::NodeId;

    const MASTER: SocketAddr = SocketAddr {
        node: NodeId(1),
        port: 6379,
    };
    const NIC: SocketAddr = SocketAddr {
        node: NodeId(2),
        port: 7000,
    };
    const REPLICA: SocketAddr = SocketAddr {
        node: NodeId(3),
        port: 6379,
    };

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    fn skv() -> ClusterConfig {
        ClusterConfig::for_mode(Mode::Skv)
    }

    fn hello() -> Intent {
        (ConnKind::Nic, vec![(7, Frame::from(vec![1u8, 2, 3]))])
    }

    /// An SKV master that has been told its Nic-KV at `t0` and dialled it.
    fn master(t0: SimTime) -> HostLinks {
        let mut links = HostLinks::new(&skv());
        assert_eq!(links.connect_nic(NIC, t0), Some(NIC));
        links.want(NIC, hello());
        links
    }

    /// A replica of `MASTER` syncing through `NIC`.
    fn replica() -> HostLinks {
        let mut links = HostLinks::new(&skv());
        links.follow(MASTER, Some(NIC));
        links
    }

    #[test]
    fn a_wanted_dial_is_made_once_while_pending() {
        let mut links = master(ms(0));
        assert!(links.wants(NIC));
        // A second reason to dial Nic-KV while the first dial is out
        // connects nothing.
        assert_eq!(links.nic_dial(), None);
        assert_eq!(links.nic_lost(ms(1)).dial, None);
        // Any other dial replaces its intent and connects.
        links.want(REPLICA, (ConnKind::Slave(REPLICA), Vec::new()));
        links.want(
            REPLICA,
            (ConnKind::Slave(REPLICA), vec![(1, Frame::from(vec![9u8]))]),
        );
        assert_eq!(links.established(REPLICA).1.len(), 1);
    }

    #[test]
    fn a_refused_dial_backs_off_then_gives_up() {
        let cfg = skv();
        let mut links = master(ms(0));
        for n in 1..=cfg.reconnect_max_attempts {
            assert_eq!(
                links.refused(NIC, true, false),
                Some((NIC, cfg.reconnect_delay(n)))
            );
            assert!(links.wants(NIC), "the `Redial` still finds its dial");
        }
        assert_eq!(links.refused(NIC, true, false), None);
        assert!(!links.wants(NIC), "given up");
        // A failure nobody wants any more is ignored.
        assert_eq!(links.refused(NIC, true, false), None);
        // Cron seeds the dial again, from a fresh count.
        assert_eq!(links.nic_dial(), Some(NIC));
        links.want(NIC, hello());
        assert_eq!(
            links.refused(NIC, true, false),
            Some((NIC, cfg.reconnect_delay(1)))
        );
    }

    #[test]
    fn a_replica_that_cannot_reach_nic_kv_re_aims_at_the_master() {
        let cfg = skv();
        let mut links = replica();
        links.want(NIC, hello());
        assert_eq!(
            links.refused(NIC, false, false),
            Some((NIC, cfg.reconnect_delay(1)))
        );
        assert_eq!(
            links.refused(NIC, false, false),
            Some((MASTER, cfg.reconnect_base))
        );
        assert!(!links.wants(NIC) && links.wants(MASTER));
        // The re-aimed dial keeps its role and frames, and starts counting
        // afresh.
        assert_eq!(
            links.refused(MASTER, false, false),
            Some((MASTER, cfg.reconnect_delay(1)))
        );
        let (kind, frames) = links.established(MASTER);
        assert!(kind == ConnKind::Nic && frames.len() == 1);

        // With a link to the master, or a dial to it pending, it stays put.
        let mut links = replica();
        links.want(NIC, hello());
        links.refused(NIC, false, true);
        assert_eq!(
            links.refused(NIC, false, true),
            Some((NIC, cfg.reconnect_delay(2)))
        );
        links.want(MASTER, hello());
        assert_eq!(
            links.refused(NIC, false, false),
            Some((NIC, cfg.reconnect_delay(3)))
        );
        // A master never re-aims: it has no upstream.
        let mut links = replica();
        links.want(NIC, hello());
        links.refused(NIC, true, false);
        assert_eq!(
            links.refused(NIC, true, false),
            Some((NIC, cfg.reconnect_delay(2)))
        );
    }

    #[test]
    fn a_redial_connects_only_while_the_dial_is_wanted() {
        let mut links = master(ms(0));
        assert!(links.wants(NIC));
        links.established(NIC);
        assert!(!links.wants(NIC), "a redial after the connect does nothing");
        assert!(!links.wants(REPLICA));
    }

    #[test]
    fn an_established_connection_takes_its_role_and_resets_the_count() {
        let cfg = skv();
        let mut links = master(ms(0));
        links.refused(NIC, true, false);
        links.refused(NIC, true, false);
        let (kind, frames) = links.established(NIC);
        assert!(kind == ConnKind::Nic && frames.len() == 1);
        links.want(NIC, hello());
        assert_eq!(
            links.refused(NIC, true, false),
            Some((NIC, cfg.reconnect_delay(1)))
        );
        // A connection nobody dialled is unnamed and carries nothing.
        let (kind, frames) = links.established(REPLICA);
        assert!(kind == ConnKind::Unknown && frames.is_empty());
    }

    #[test]
    fn losing_the_nic_channel_degrades_once_and_redials() {
        let mut links = master(ms(0));
        links.established(NIC);
        let lost = links.nic_lost(ms(10));
        assert!(lost.degraded && links.is_degraded());
        assert_eq!(lost.dial, Some(NIC));
        links.want(NIC, hello());
        let again = links.nic_lost(ms(20));
        assert!(!again.degraded && again.dial.is_none());
        assert_eq!(links.degraded_periods(), &[(ms(10), None)]);
    }

    #[test]
    fn nic_traffic_re_offloads_a_degraded_master() {
        let cfg = skv();
        let mut links = master(ms(0));
        links.nic_lost(ms(10));
        links.nic_heard(true, ms(30));
        assert!(!links.is_degraded());
        assert_eq!(links.degraded_periods(), &[(ms(10), Some(ms(30)))]);
        // The clock restarted: no silence until `upstream_silence` later.
        let quiet = ms(30) + cfg.upstream_silence;
        assert!(!links.master_cron(quiet).degraded);
        // A replica's traffic restarts its own clock and touches nothing
        // else.
        let mut links = replica();
        links.upstream_heard(ms(0));
        links.nic_heard(false, ms(50));
        assert_eq!(
            links.upstream_silent(ms(50) + cfg.upstream_silence, Some(4)),
            None
        );
        assert!(links.degraded_periods().is_empty());
    }

    #[test]
    fn master_cron_degrades_on_silence_and_redials_every_500_ms() {
        let cfg = skv();
        let mut links = master(ms(0));
        links.established(NIC);
        let silence = cfg.upstream_silence;
        assert!(!links.master_cron(ms(0) + silence).degraded);
        let t = ms(1) + silence;
        let cron = links.master_cron(t);
        assert!(cron.degraded && links.is_degraded());
        assert_eq!(cron.dial, Some(NIC));
        // The dial fails and is given up on; cron alone redials, at most
        // every 500 ms.
        links.want(NIC, hello());
        while links.refused(NIC, true, false).is_some() {}
        assert_eq!(
            links
                .master_cron(t + NIC_RETRY - SimDuration::from_millis(1))
                .dial,
            None
        );
        let cron = links.master_cron(t + NIC_RETRY);
        assert!(!cron.degraded && cron.dial == Some(NIC));
        // Not while that dial is pending, however long it takes.
        links.want(NIC, hello());
        assert_eq!(links.master_cron(t + NIC_RETRY * 4).dial, None);
    }

    #[test]
    fn replica_cron_tears_down_a_silent_channel_and_re_registers() {
        let cfg = skv();
        let mut links = replica();
        assert_eq!(
            links.watched_nic(false),
            None,
            "only a synced replica watches"
        );
        assert_eq!(links.watched_nic(true), Some(NIC));
        links.upstream_heard(ms(0));
        let silent = ms(1) + cfg.upstream_silence;
        assert_eq!(
            links.upstream_silent(silent - SimDuration::from_millis(1), Some(4)),
            None
        );
        assert_eq!(links.upstream_silent(silent, Some(4)), Some(4));
        // No channel to tear down: the clock restarts instead.
        assert_eq!(links.upstream_silent(silent, None), None);
        assert_eq!(
            links.upstream_silent(silent + cfg.upstream_silence, Some(4)),
            None
        );
        // Re-register: only with no channel and no dial, at most every 1 s.
        assert!(!links.reregister_due(NIC, true, ms(0)));
        assert!(links.reregister_due(NIC, false, ms(0)));
        assert!(!links.reregister_due(NIC, false, ms(999)));
        assert!(links.reregister_due(NIC, false, ms(1_000)));
        links.want(NIC, hello());
        assert!(!links.reregister_due(NIC, false, ms(5_000)));
    }

    #[test]
    fn the_upstream_is_a_replica_s_and_survives_promotion() {
        let mut links = HostLinks::new(&skv());
        assert_eq!(links.upstream(false), None);
        links.follow(MASTER, Some(NIC));
        assert_eq!(links.upstream(false), Some((MASTER, Some(NIC))));
        // Promoted: a master has no upstream, but a demotion finds it again.
        assert_eq!(links.upstream(true), None);
        assert_eq!(links.upstream(false), Some((MASTER, Some(NIC))));
        links.follow(MASTER, None);
        assert_eq!(
            links.watched_nic(true),
            None,
            "no Nic-KV to watch in the baselines"
        );
    }

    #[test]
    fn recover_forgets_the_dials_the_crash_lost() {
        let mut links = master(ms(0));
        links.refused(NIC, true, false);
        links.want(REPLICA, (ConnKind::Slave(REPLICA), Vec::new()));
        links.nic_lost(ms(10));
        // The crash lost the dial's failure and its `Redial`; `Recover`
        // forgets the dial, so the master re-registers at once.
        assert_eq!(links.restart(ms(500), true), Some(NIC));
        assert!(!links.wants(NIC) && !links.wants(REPLICA));
        assert!(
            links.is_degraded(),
            "re-offloading waits for the SoC's traffic"
        );
        // The clocks restarted with it.
        links.want(NIC, hello());
        let cfg = skv();
        assert_eq!(
            links.refused(NIC, true, false),
            Some((NIC, cfg.reconnect_delay(1)))
        );
        assert_eq!(links.master_cron(ms(500)).dial, None);
        // A replica, or a master outside SKV, re-registers with nobody.
        assert_eq!(replica().restart(ms(500), false), None);
        let mut links = HostLinks::new(&ClusterConfig::for_mode(Mode::RdmaRedis));
        links.connect_nic(NIC, ms(0));
        assert_eq!(links.restart(ms(500), true), None);
    }

    /// What happens to one of the master's Nic-KV dials next.
    #[derive(Debug)]
    enum Due {
        Connect,
        Redial(SocketAddr),
    }

    /// An SKV master's owner in a world of its own: the Nic-KV dials in
    /// flight and the `Redial`s set, oldest first, the Nic channel, the
    /// SoC and the host process. It carries the owner's answers out the
    /// way `KvServer` does.
    struct World {
        links: HostLinks,
        now: SimTime,
        due: Vec<Due>,
        channel: bool,
        soc_up: bool,
        crashed: bool,
    }

    impl World {
        fn new() -> Self {
            // Few attempts, so that dials are given up on and only cron's
            // redial is left.
            let mut cfg = skv();
            cfg.reconnect_max_attempts = 2;
            let mut w = World {
                links: HostLinks::new(&cfg),
                now: ms(1),
                due: Vec::new(),
                channel: false,
                soc_up: true,
                crashed: false,
            };
            let dial = w.links.connect_nic(NIC, w.now);
            w.fall_back(Fallback {
                degraded: false,
                dial,
            });
            w
        }

        fn fall_back(&mut self, f: Fallback) {
            if f.degraded {
                self.channel = false;
            }
            if let Some(nic) = f.dial {
                self.links.want(nic, hello());
                self.due.push(Due::Connect);
            }
        }

        fn tick(&mut self) {
            self.now += SimDuration::from_millis(100);
            if !self.crashed {
                let f = self.links.master_cron(self.now);
                self.fall_back(f);
            }
        }

        /// The `pick`-th thing due happens.
        fn resolve(&mut self, pick: usize) {
            if self.due.is_empty() {
                return;
            }
            match self.due.remove(pick % self.due.len()) {
                Due::Connect if self.soc_up => {
                    let (kind, frames) = self.links.established(NIC);
                    assert!(kind == ConnKind::Nic && frames.len() == 1, "the Hello");
                    self.channel = true;
                }
                Due::Connect => {
                    if let Some((to, _)) = self.links.refused(NIC, true, false) {
                        self.due.push(Due::Redial(to));
                    }
                }
                Due::Redial(to) => {
                    if self.links.wants(to) {
                        self.due.push(Due::Connect);
                    }
                }
            }
        }

        fn traffic(&mut self) {
            if self.channel && self.soc_up && !self.crashed {
                self.links.nic_heard(true, self.now);
            }
        }

        fn soc_down(&mut self) {
            self.soc_up = false;
            if std::mem::take(&mut self.channel) && !self.crashed {
                let f = self.links.nic_lost(self.now);
                self.fall_back(f);
            }
        }

        fn crash(&mut self) {
            // Everything due to the process is lost with it.
            self.crashed = true;
            self.due.clear();
        }

        fn recover(&mut self) {
            if !std::mem::take(&mut self.crashed) {
                return;
            }
            let dial = self.links.restart(self.now, true);
            if dial.is_some() {
                self.channel = false;
            }
            self.fall_back(Fallback {
                degraded: false,
                dial,
            });
        }

        fn step(&mut self, op: u8, arg: u32) {
            match op % 7 {
                0 => self.tick(),
                1 => self.resolve(arg as usize),
                2 => self.traffic(),
                3 => self.soc_down(),
                4 => self.soc_up = true,
                5 => self.crash(),
                _ => self.recover(),
            }
        }

        /// Every remembered dial has exactly one connect or redial due.
        fn way_forward(&self) -> bool {
            self.crashed || self.due.len() == usize::from(self.links.wants(NIC))
        }

        fn periods_well_formed(&self) -> bool {
            let periods = self.links.degraded_periods();
            let open = periods.iter().filter(|p| p.1.is_none()).count();
            let last_open = periods.last().is_some_and(|p| p.1.is_none());
            open == usize::from(self.links.is_degraded()) && open <= usize::from(last_open)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever happened before — dials refused and connected, redials,
        /// traffic, cron, the SoC going down and up, the host crashing and
        /// recovering in any order — every dial the owner remembers has a
        /// way forward, and once the SoC answers again a degraded master
        /// re-offloads within a second of cron.
        #[test]
        fn a_wanted_link_always_has_a_way_forward(
            ops in prop::collection::vec((any::<u8>(), any::<u32>()), 0..120),
        ) {
            let mut w = World::new();
            for (op, arg) in ops {
                w.step(op, arg);
                prop_assert!(w.way_forward(), "{:?} due, dial wanted: {}", w.due, w.links.wants(NIC));
                prop_assert!(w.periods_well_formed());
            }
            w.soc_up = true;
            w.recover();
            for _ in 0..8 {
                while !w.due.is_empty() {
                    w.resolve(0);
                }
                w.traffic();
                if !w.links.is_degraded() {
                    break;
                }
                w.tick();
                prop_assert!(w.way_forward());
            }
            prop_assert!(!w.links.is_degraded(), "still degraded at {:?}", w.now);
            prop_assert!(w.periods_well_formed());
        }
    }
}
