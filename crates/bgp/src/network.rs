//! The simulated inter-domain network: routers, links, and the event loop.
//!
//! [`Network`] owns one [`Router`] per AS, a table of directed links, and
//! a [`netsim::EventQueue`]. It drives the simulation by popping events and
//! feeding them to the pure router state machines, translating each
//! [`crate::router::RouterOutput`] back into scheduled events:
//!
//! * `sends` become deliveries after the link delay (jittered,
//!   but never reordered within a directed link — BGP sessions run over
//!   TCP, so per-session FIFO order is preserved by clamping);
//! * MRAI and RFD timer requests become timer events;
//! * Loc-RIB changes at *tapped* ASs (the vantage points) are appended to
//!   the tap log, which the `collector` crate turns into update dumps.
//!
//! Beacon origination is scheduled with [`Network::schedule_announce`] /
//! [`Network::schedule_withdraw`]; announcements scheduled with
//! `stamp: true` carry an [`AggregatorStamp`] of their fire time, exactly
//! like the paper's beacons encode send timestamps in the aggregator
//! attribute.
//!
//! ## Data layout
//!
//! Routers live in a vector indexed by a dense `u32`, and every session
//! direction is a directed link with a dense `u32` id; a session's two
//! directions are links `l` and `l ^ 1`. Events name routers and links by
//! these indices, so the event loop never looks up an AS number: link
//! delays, FIFO horizons and the down flag are per-link fields, and the
//! vantage-point taps are a bitmap over router indices. AS numbers are
//! resolved only at the API boundary ([`Network::router`],
//! [`Network::attach_tap`], the `schedule_*` calls, and the session order
//! of [`Network::apply_faults`]). Each router keeps its sessions sorted by
//! peer AS number, so the decision process and the export loop visit
//! peers in AS order. That order fixes the event stream, its sequence
//! numbers and the jitter draws, which the golden outputs pin (DESIGN.md
//! §5e).

use std::collections::BTreeMap;

use netsim::faults::{FaultCounters, FaultPlan};
use netsim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::message::{AggregatorStamp, AsId, BgpUpdate};
use crate::policy::SessionPolicy;
use crate::prefix::Prefix;
use crate::rib::Route;
use crate::router::{Router, RouterOutput};

/// Global network parameters.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Link delay used when `connect` is called without an explicit delay.
    pub default_link_delay: SimDuration,
    /// Multiplicative jitter: each delivery takes `delay × (1 + U[0, jitter])`.
    pub jitter: f64,
    /// Per-hop router processing/batching delay, drawn uniformly from
    /// this inclusive range and added to every delivery. Real BGP update
    /// propagation is dominated by per-router batching (scan timers,
    /// update pacing), not wire latency — this is what gives the paper's
    /// Fig. 8 its seconds-scale propagation times. Defaults to zero so
    /// protocol-level tests stay exact.
    pub processing_delay: (SimDuration, SimDuration),
    /// Seed for the network's private randomness (jitter only).
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            default_link_delay: SimDuration::from_millis(100),
            jitter: 0.5,
            processing_delay: (SimDuration::ZERO, SimDuration::ZERO),
            seed: 0,
        }
    }
}

impl NetworkConfig {
    /// A configuration with realistic per-hop processing delays
    /// (0.5 – 8 s), matching the propagation-time scale the paper
    /// measures against the RIPE beacons.
    pub fn realistic(seed: u64) -> Self {
        NetworkConfig {
            processing_delay: (SimDuration::from_millis(500), SimDuration::from_secs(8)),
            seed,
            ..Default::default()
        }
    }
}

/// The router index of an AS the network does not know.
const NO_ROUTER: u32 = u32::MAX;

/// Events of the network's event loop. Routers and links are named
/// by their dense indices.
#[derive(Clone, Debug)]
enum NetEvent {
    /// Deliver `update` over directed link `link` (already delayed).
    Deliver { link: u32, update: BgpUpdate },
    /// The MRAI gate that `link`'s sender keeps for `link` may reopen.
    MraiExpire { link: u32, prefix: Prefix },
    /// An RFD reuse check on the damping state `link`'s sender keeps for
    /// routes learned over the session.
    RfdReuse { link: u32, prefix: Prefix },
    /// A locally-scheduled origination (beacon announcement); `stamp`
    /// stamps the aggregator attribute with the fire time.
    Originate {
        router: u32,
        prefix: Prefix,
        stamp: bool,
    },
    /// A locally-scheduled withdrawal (beacon withdrawal).
    WithdrawOrigin { router: u32, prefix: Prefix },
    /// A fault-injected reset of `link`'s session drops it.
    SessionDown { link: u32 },
    /// The reset session re-establishes (full table re-sync).
    SessionUp { link: u32 },
}

/// One direction of a session.
#[derive(Clone, Debug)]
struct Link {
    /// Sending router.
    from: u32,
    /// Receiving router.
    to: u32,
    /// Position of the session to `to` in `from`'s session list.
    slot: u32,
    /// Propagation delay before jitter and processing.
    delay: SimDuration,
    /// Last scheduled delivery, to preserve TCP FIFO.
    horizon: SimTime,
    /// The session is down (a fault-injected reset is in progress).
    down: bool,
}

/// One observation at a vantage point: the VP's best route for a beacon
/// prefix changed. `route: None` records a withdrawal.
#[derive(Clone, Debug, PartialEq)]
pub struct TapRecord {
    /// The vantage-point AS.
    pub vantage: AsId,
    /// When the VP's Loc-RIB changed (before collector export delay).
    pub time: SimTime,
    /// The affected prefix.
    pub prefix: Prefix,
    /// The new best route in the VP's exported view, `None` on withdrawal.
    pub route: Option<Route>,
}

/// RFD activity under one parameter set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RfdProfileStats {
    /// Routes driven into suppression.
    pub suppressions: u64,
    /// Suppressed routes released (by decay or reuse timer).
    pub releases: u64,
}

/// Protocol-level counters aggregated across the whole network.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Announcements delivered to a router.
    pub updates_announced: u64,
    /// Withdrawals delivered to a router.
    pub updates_withdrawn: u64,
    /// Announcements the MRAI gates deferred.
    pub mrai_deferrals: u64,
    /// RFD suppressions/releases keyed by parameter-set name
    /// (`"cisco"`, `"juniper"`, `"rfc7454"`, or `"custom"`).
    pub rfd: BTreeMap<&'static str, RfdProfileStats>,
}

/// The simulated network.
pub struct Network {
    /// Routers by dense index, in order of addition.
    routers: Vec<Router>,
    /// AS number → router index, for the API boundary only.
    index: BTreeMap<AsId, u32>,
    /// Directed links; `l` and `l ^ 1` are one session's two directions.
    links: Vec<Link>,
    queue: EventQueue<NetEvent>,
    /// Vantage points: one bit per router index.
    taps: Vec<u64>,
    tap_log: Vec<TapRecord>,
    rng: SimRng,
    config: NetworkConfig,
    delivered: u64,
    stats: NetStats,
    /// Output buffer reused by every dispatch.
    out: RouterOutput,
    /// Optional event trace. `None` (the default) costs one branch per
    /// dispatch; see DESIGN.md §5d.
    trace: Option<obs::TraceBuffer>,
    /// Interned sim-time lane per damped (router, peer, prefix) session.
    rfd_lanes: BTreeMap<(AsId, AsId, Prefix), obs::Lane>,
    /// Interned sim-time lane per router for MRAI deferral instants.
    mrai_lanes: BTreeMap<AsId, obs::Lane>,
    /// Tallies of injected faults (session resets, dropped deliveries).
    fault_counters: FaultCounters,
    /// True once a fault plan was applied (even one injecting nothing).
    faults_applied: bool,
    /// Interned sim-time lane per faulted (unordered) link.
    fault_lanes: BTreeMap<(AsId, AsId), obs::Lane>,
}

impl Network {
    /// An empty network.
    pub fn new(config: NetworkConfig) -> Self {
        let rng = SimRng::new(config.seed).split("network-jitter");
        Network {
            routers: Vec::new(),
            index: BTreeMap::new(),
            links: Vec::new(),
            queue: EventQueue::new(),
            taps: Vec::new(),
            tap_log: Vec::new(),
            rng,
            config,
            delivered: 0,
            stats: NetStats::default(),
            out: RouterOutput::default(),
            trace: None,
            rfd_lanes: BTreeMap::new(),
            mrai_lanes: BTreeMap::new(),
            fault_counters: FaultCounters::default(),
            faults_applied: false,
            fault_lanes: BTreeMap::new(),
        }
    }

    /// Schedule every session reset a fault plan prescribes for this
    /// network's links over `[0, horizon)`. Each reset becomes a session
    /// down/up event pair; between the two, deliveries on the link are
    /// dropped (and counted). Sessions are visited in (AS, AS) order,
    /// and the plan itself is a pure function of its seed, so the same
    /// `(seed, plan)` always injects the same resets.
    pub fn apply_faults(&mut self, plan: &FaultPlan, horizon: SimDuration) {
        self.faults_applied = true;
        // Each session once, by the direction leaving its lower AS.
        let mut sessions: Vec<(AsId, AsId, u32)> = self
            .links
            .iter()
            .zip(0u32..)
            .map(|(l, id)| (self.asn(l.from), self.asn(l.to), id))
            .filter(|(a, b, _)| a < b)
            .collect();
        sessions.sort_unstable();
        for (a, b, link) in sessions {
            if let Some((down_at, up_at)) =
                plan.session_reset(u64::from(a.0), u64::from(b.0), horizon)
            {
                self.queue
                    .schedule_at(down_at, NetEvent::SessionDown { link });
                self.queue.schedule_at(up_at, NetEvent::SessionUp { link });
            }
        }
    }

    /// Tallies of faults this network actually injected.
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.fault_counters
    }

    /// True once [`Network::apply_faults`] ran.
    pub fn faults_applied(&self) -> bool {
        self.faults_applied
    }

    /// Attach an event trace. RFD state-machine transitions (suppress,
    /// release, penalty samples, delayed re-advertisements) and MRAI
    /// deferrals are recorded on sim-time lanes — one lane per damped
    /// (router, peer, prefix) session, one per deferring router.
    pub fn set_trace(&mut self, trace: obs::TraceBuffer) {
        self.trace = Some(trace);
    }

    /// Detach and return the trace, if one was attached.
    pub fn take_trace(&mut self) -> Option<obs::TraceBuffer> {
        self.trace.take()
    }

    /// Read-only view of the attached trace.
    pub fn trace(&self) -> Option<&obs::TraceBuffer> {
        self.trace.as_ref()
    }

    /// Add a router for `asn` (no-op if it exists).
    pub fn add_router(&mut self, asn: AsId) {
        self.router_index(asn);
    }

    /// The index of `asn`'s router, adding the router if it is new.
    fn router_index(&mut self, asn: AsId) -> u32 {
        let next = u32::try_from(self.routers.len())
            .ok()
            .filter(|&n| n != NO_ROUTER)
            .expect("fewer than 2^32 - 1 routers");
        let index = *self.index.entry(asn).or_insert(next);
        if index == next {
            self.routers.push(Router::new(asn));
        }
        index
    }

    fn asn(&self, router: u32) -> AsId {
        self.routers[router as usize].asn()
    }

    /// Add a router for every AS in `asns`, then size the router and link
    /// tables for the sessions `links` will connect (endpoint pairs), so
    /// that the [`Network::connect`] calls that follow never reallocate.
    pub fn reserve(
        &mut self,
        asns: impl ExactSizeIterator<Item = AsId>,
        links: impl IntoIterator<Item = (AsId, AsId)>,
    ) {
        self.routers.reserve_exact(asns.len());
        for asn in asns {
            self.add_router(asn);
        }
        let mut degree = vec![0usize; self.routers.len()];
        let mut sessions = 0;
        for (a, b) in links {
            for asn in [a, b] {
                let i = self.router_index(asn) as usize;
                if i >= degree.len() {
                    degree.resize(i + 1, 0);
                }
                degree[i] += 1;
            }
            sessions += 1;
        }
        self.links.reserve_exact(2 * sessions);
        for (router, d) in self.routers.iter_mut().zip(degree) {
            router.reserve_sessions(d);
        }
    }

    /// Connect `a` and `b` with the given per-side session policies and a
    /// symmetric link delay. Policies are *from each side's perspective*:
    /// `policy_at_a` is how `a` treats neighbor `b`. Connecting a pair
    /// again reconfigures its session (resetting its state) and delay.
    pub fn connect(
        &mut self,
        a: AsId,
        b: AsId,
        policy_at_a: SessionPolicy,
        policy_at_b: SessionPolicy,
        delay: Option<SimDuration>,
    ) {
        assert_ne!(a, b, "self-link");
        debug_assert_eq!(
            policy_at_a.relationship,
            policy_at_b.relationship.reversed(),
            "inconsistent relationship on link {a}–{b}"
        );
        let ia = self.router_index(a);
        let ib = self.router_index(b);
        let delay = delay.unwrap_or(self.config.default_link_delay);
        let router_a = &self.routers[ia as usize];
        let link = match router_a.slot(b) {
            Some(slot) => router_a.link(slot),
            None => {
                let link = u32::try_from(self.links.len()).expect("fewer than 2^32 links");
                for (from, to) in [(ia, ib), (ib, ia)] {
                    self.links.push(Link {
                        from,
                        to,
                        slot: 0,
                        delay,
                        horizon: SimTime::ZERO,
                        down: false,
                    });
                }
                link
            }
        };
        for (link, policy) in [(link, policy_at_a), (link ^ 1, policy_at_b)] {
            let l = &mut self.links[link as usize];
            l.delay = delay;
            let (from, peer) = (l.from, self.routers[l.to as usize].asn());
            let router = &mut self.routers[from as usize];
            for slot in router.add_session_on(peer, link, policy) {
                self.links[router.link(slot) as usize].slot = slot as u32;
            }
        }
    }

    /// Mark `asn` as a vantage point whose Loc-RIB changes are recorded.
    pub fn attach_tap(&mut self, asn: AsId) {
        let Some(&i) = self.index.get(&asn) else {
            panic!("tap on unknown {asn}");
        };
        let (word, bit) = (i as usize / 64, i % 64);
        if word >= self.taps.len() {
            self.taps.resize(word + 1, 0);
        }
        self.taps[word] |= 1 << bit;
    }

    fn is_tap(&self, router: u32) -> bool {
        self.taps
            .get(router as usize / 64)
            .is_some_and(|w| w >> (router % 64) & 1 == 1)
    }

    /// Immutable access to a router.
    pub fn router(&self, asn: AsId) -> Option<&Router> {
        self.index.get(&asn).map(|&i| &self.routers[i as usize])
    }

    /// All AS numbers in the network, in ascending order.
    pub fn as_ids(&self) -> Vec<AsId> {
        self.index.keys().copied().collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of BGP updates delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total events processed by the queue.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Protocol-level counters (updates, MRAI deferrals, RFD activity).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Distinct AS paths the routers have built for export, summed over
    /// routers. Each is allocated once and shared by every RIB entry and
    /// update that carries it.
    fn interned_paths(&self) -> u64 {
        self.routers.iter().map(|r| r.interned_paths() as u64).sum()
    }

    /// The deepest the event queue has ever been.
    pub fn queue_depth_high_water(&self) -> usize {
        self.queue.depth_high_water()
    }

    /// Export queue and protocol metrics into a run report as the
    /// `netsim.queue` and `bgpsim.network` sections.
    pub fn export_obs(&self, report: &mut obs::RunReport) {
        report.push_section(self.queue.obs_section("netsim.queue"));
        let section = report.section("bgpsim.network");
        section
            .counter("updates_delivered", self.delivered)
            .counter("updates_announced", self.stats.updates_announced)
            .counter("updates_withdrawn", self.stats.updates_withdrawn)
            .counter("mrai_deferrals", self.stats.mrai_deferrals)
            .counter("interned_paths", self.interned_paths());
        for (name, profile) in &self.stats.rfd {
            section
                .counter(&format!("rfd_suppressions.{name}"), profile.suppressions)
                .counter(&format!("rfd_releases.{name}"), profile.releases);
        }
        if let Some(trace) = &self.trace {
            trace.export_into(report.section("bgpsim.trace"));
        }
    }

    /// Schedule an origination (announcement) of `prefix` at `router`.
    /// With `stamp`, the announcement carries an aggregator timestamp equal
    /// to the fire time — the beacon convention. An origination at an AS
    /// the network does not have when this is called does nothing when it
    /// fires.
    pub fn schedule_announce(&mut self, at: SimTime, router: AsId, prefix: Prefix, stamp: bool) {
        let router = self.index.get(&router).copied().unwrap_or(NO_ROUTER);
        self.queue.schedule_at(
            at,
            NetEvent::Originate {
                router,
                prefix,
                stamp,
            },
        );
    }

    /// Schedule a withdrawal of a locally-originated `prefix` (a no-op
    /// when it fires, like [`Network::schedule_announce`], at an unknown
    /// AS).
    pub fn schedule_withdraw(&mut self, at: SimTime, router: AsId, prefix: Prefix) {
        let router = self.index.get(&router).copied().unwrap_or(NO_ROUTER);
        self.queue
            .schedule_at(at, NetEvent::WithdrawOrigin { router, prefix });
    }

    /// Run until the queue is empty or the clock passes `until`.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let mut n = 0;
        while let Some((now, ev)) = self.queue.pop_until(until) {
            self.dispatch(now, ev);
            n += 1;
        }
        n
    }

    /// Run until the queue fully drains (converged network).
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Take the accumulated tap log, leaving it empty.
    pub fn take_tap_log(&mut self) -> Vec<TapRecord> {
        std::mem::take(&mut self.tap_log)
    }

    /// Read-only view of the tap log.
    pub fn tap_log(&self) -> &[TapRecord] {
        &self.tap_log
    }

    fn dispatch(&mut self, now: SimTime, ev: NetEvent) {
        // The output buffer is reused across events; `apply_output`
        // leaves it empty.
        let mut out = std::mem::take(&mut self.out);
        if let Some((router, rfd_session)) = self.handle(now, ev, &mut out) {
            self.apply_output(now, router, rfd_session, &mut out);
        }
        self.out = out;
    }

    /// Hand one event to its router. Returns the router whose output
    /// `out` now holds, and the (slot, prefix) session any RFD transition
    /// in it belongs to — only deliveries and reuse timers can flip RFD
    /// state, and both name the session up front. `None` when no router
    /// output is pending.
    fn handle(
        &mut self,
        now: SimTime,
        ev: NetEvent,
        out: &mut RouterOutput,
    ) -> Option<(u32, Option<(usize, Prefix)>)> {
        match ev {
            NetEvent::Deliver { link, update } => {
                let Link { to, down, .. } = self.links[link as usize];
                // A down session drops traffic on the floor. Only a fault
                // plan ever takes a session down.
                if down {
                    self.fault_counters.updates_dropped_down += 1;
                    if self.trace.is_some() {
                        self.trace_fault(now, link, "update_dropped");
                    }
                    return None;
                }
                self.delivered += 1;
                if update.action.is_announce() {
                    self.stats.updates_announced += 1;
                } else {
                    self.stats.updates_withdrawn += 1;
                }
                // The receiver's slot for the sender is the reverse
                // direction's slot.
                let slot = self.links[link as usize ^ 1].slot as usize;
                let prefix = update.prefix;
                self.routers[to as usize].handle_update_at(slot, update, now, out);
                Some((to, Some((slot, prefix))))
            }
            NetEvent::MraiExpire { link, prefix } => {
                let Link { from, slot, .. } = self.links[link as usize];
                self.routers[from as usize].mrai_expired_at(slot as usize, prefix, now, out);
                Some((from, None))
            }
            NetEvent::RfdReuse { link, prefix } => {
                let Link { from, slot, .. } = self.links[link as usize];
                let slot = slot as usize;
                self.routers[from as usize].rfd_reuse_at(slot, prefix, now, out);
                Some((from, Some((slot, prefix))))
            }
            NetEvent::Originate {
                router,
                prefix,
                stamp,
            } => {
                let r = self.routers.get_mut(router as usize)?;
                let aggregator = stamp.then(|| AggregatorStamp::new(now));
                r.originate_into(prefix, aggregator, now, out);
                Some((router, None))
            }
            NetEvent::WithdrawOrigin { router, prefix } => {
                let r = self.routers.get_mut(router as usize)?;
                r.withdraw_origin_into(prefix, now, out);
                Some((router, None))
            }
            NetEvent::SessionDown { link } => {
                self.session_transition(now, link, false);
                None
            }
            NetEvent::SessionUp { link } => {
                self.session_transition(now, link, true);
                None
            }
        }
    }

    /// Drive both ends of `link`'s session through a reset transition and
    /// apply each affected prefix's router output individually (so every
    /// Loc-RIB change reaches the tap log).
    fn session_transition(&mut self, now: SimTime, link: u32, up: bool) {
        for l in [link, link ^ 1] {
            self.links[l as usize].down = !up;
        }
        if !up {
            self.fault_counters.session_resets += 1;
        }
        if self.trace.is_some() {
            self.trace_fault(now, link, if up { "session_up" } else { "session_down" });
        }
        for l in [link, link ^ 1] {
            let Link { from, to, slot, .. } = self.links[l as usize];
            let peer = self.asn(to);
            let r = &mut self.routers[from as usize];
            let outs = if up {
                r.session_up(peer, now)
            } else {
                r.session_down(peer, now)
            };
            for (prefix, mut output) in outs {
                self.apply_output(now, from, Some((slot as usize, prefix)), &mut output);
            }
        }
    }

    /// Translate one router output into scheduled events, stats, trace
    /// records and tap-log entries, leaving `output` empty.
    fn apply_output(
        &mut self,
        now: SimTime,
        router: u32,
        rfd_session: Option<(usize, Prefix)>,
        output: &mut RouterOutput,
    ) {
        if self.trace.is_some() {
            self.trace_output(now, router, rfd_session, output);
        }
        self.stats.mrai_deferrals += u64::from(std::mem::take(&mut output.mrai_deferrals));
        let suppressed = std::mem::take(&mut output.rfd_suppressed);
        let released = std::mem::take(&mut output.rfd_released);
        if suppressed || released {
            let r = &self.routers[router as usize];
            let name = rfd_session
                .and_then(|(slot, prefix)| r.policy(slot).rfd_for(prefix))
                .map_or("custom", |params| params.profile_name());
            let profile = self.stats.rfd.entry(name).or_default();
            if suppressed {
                profile.suppressions += 1;
            }
            if released {
                profile.releases += 1;
            }
        }

        // Translate the router's requests into events.
        for (slot, update) in output.sends.drain(..) {
            let link = self.routers[router as usize].link(slot);
            let delivery = self.delivery_time(link, now);
            self.queue
                .schedule_at(delivery, NetEvent::Deliver { link, update });
        }
        for (slot, prefix, at) in output.mrai_timers.drain(..) {
            let link = self.routers[router as usize].link(slot);
            self.queue
                .schedule_at(at.max(now), NetEvent::MraiExpire { link, prefix });
        }
        for (slot, prefix, at) in output.rfd_timers.drain(..) {
            let link = self.routers[router as usize].link(slot);
            self.queue
                .schedule_at(at.max(now), NetEvent::RfdReuse { link, prefix });
        }
        if let Some(change) = output.loc_rib_change.take() {
            if self.is_tap(router) {
                self.tap_log.push(TapRecord {
                    vantage: self.asn(router),
                    time: now,
                    prefix: change.prefix,
                    route: change.route,
                });
            }
        }
    }

    /// Record one dispatch's RFD/MRAI activity into the attached trace.
    /// Only called when a trace is attached, so the untraced dispatch
    /// path pays exactly one branch.
    fn trace_output(
        &mut self,
        now: SimTime,
        router: u32,
        rfd_session: Option<(usize, Prefix)>,
        output: &RouterOutput,
    ) {
        let r = &self.routers[router as usize];
        let router_id = r.asn();
        let trace = self.trace.as_mut().expect("caller checked");
        let now_ms = now.as_millis();
        if output.mrai_deferrals > 0 {
            let next = self.mrai_lanes.len() as u32;
            let lane = *self.mrai_lanes.entry(router_id).or_insert_with(|| {
                let lane = obs::Lane::pair(1, next);
                trace.set_lane_name(lane, &format!("mrai {router_id}"));
                lane
            });
            trace.counter_sim(
                "mrai_deferrals",
                lane,
                now_ms,
                f64::from(output.mrai_deferrals),
            );
        }
        let Some((slot, prefix)) = rfd_session else {
            return;
        };
        let peer = r.neighbor_asn(slot);
        // Only damped sessions get a lane; `rfd_penalty` is `None` when
        // the session has no RFD configured.
        let Some(penalty) = r.rfd_penalty(peer, prefix, now) else {
            return;
        };
        let next = self.rfd_lanes.len() as u32;
        let lane = *self
            .rfd_lanes
            .entry((router_id, peer, prefix))
            .or_insert_with(|| {
                let lane = obs::Lane::pair(2, next);
                trace.set_lane_name(lane, &format!("rfd {router_id}<-{peer} {prefix}"));
                lane
            });
        trace.counter_sim("penalty", lane, now_ms, penalty);
        if output.rfd_suppressed {
            trace.begin_sim("suppressed", lane, now_ms);
        }
        if output.rfd_released {
            trace.end_sim("suppressed", lane, now_ms);
            let usable_again = output
                .loc_rib_change
                .as_ref()
                .is_some_and(|c| c.route.is_some());
            if usable_again {
                // The paper's Fig. 2 signature: the re-advertisement the
                // damper delayed until the penalty decayed under reuse
                // (the actual send may still sit behind an MRAI gate).
                trace.instant_sim("readvertise", lane, now_ms);
            }
        }
    }

    /// Record an injected fault on the session's interned fault lane. Only
    /// called when a trace is attached (callers check), keeping the
    /// untraced path at one branch.
    fn trace_fault(&mut self, now: SimTime, link: u32, what: &'static str) {
        let l = &self.links[link as usize];
        let (a, b) = (self.asn(l.from), self.asn(l.to));
        let trace = self.trace.as_mut().expect("caller checked");
        let key = if a <= b { (a, b) } else { (b, a) };
        let next = self.fault_lanes.len() as u32;
        let lane = *self.fault_lanes.entry(key).or_insert_with(|| {
            let lane = obs::Lane::pair(3, next);
            trace.set_lane_name(lane, &format!("fault {}-{}", key.0, key.1));
            lane
        });
        trace.instant_sim(what, lane, now.as_millis());
    }

    /// Jittered delivery time over `link` that preserves its FIFO order.
    fn delivery_time(&mut self, link: u32, now: SimTime) -> SimTime {
        let base = self.links[link as usize].delay;
        let jitter = 1.0 + self.config.jitter * self.rng.uniform();
        let (proc_lo, proc_hi) = self.config.processing_delay;
        let processing = if proc_hi > proc_lo {
            proc_lo
                + SimDuration::from_millis(self.rng.below((proc_hi - proc_lo).as_millis().max(1)))
        } else {
            proc_lo
        };
        let mut t = now + base.mul_f64(jitter) + processing;
        let horizon = &mut self.links[link as usize].horizon;
        if t < *horizon {
            t = *horizon;
        }
        *horizon = t;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::AsPath;
    use crate::policy::Relationship;
    use crate::rfd::VendorProfile;
    use crate::router::Selection;

    fn pfx() -> Prefix {
        "10.0.7.0/24".parse().unwrap()
    }

    fn cfg() -> NetworkConfig {
        NetworkConfig {
            default_link_delay: SimDuration::from_millis(50),
            jitter: 0.0,
            seed: 1,
            ..Default::default()
        }
    }

    /// Line topology: 10 ← 20 ← 30 (20 is provider of 10, 30 provider of 20).
    fn line() -> Network {
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net
    }

    #[test]
    fn announcement_propagates_up_the_chain() {
        let mut net = line();
        net.attach_tap(AsId(30));
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        // AS30 selected the route through 20 → 10.
        match net.router(AsId(30)).unwrap().best(pfx()) {
            Some(Selection::Learned { route, .. }) => {
                assert_eq!(
                    route.path.asns(),
                    &[AsId(20), AsId(10)],
                    "customer chain path"
                );
            }
            other => panic!("expected learned route, got {other:?}"),
        }
        // The tap recorded one announcement with the VP's ASN prepended.
        let log = net.tap_log();
        assert_eq!(log.len(), 1);
        let rec = &log[0];
        assert_eq!(rec.vantage, AsId(30));
        let route = rec.route.as_ref().unwrap();
        assert_eq!(route.path.asns(), &[AsId(30), AsId(20), AsId(10)]);
        assert!(route.aggregator.unwrap().valid);
        assert_eq!(route.aggregator.unwrap().sent_at, SimTime::ZERO);
    }

    #[test]
    fn withdrawal_propagates_and_is_logged() {
        let mut net = line();
        net.attach_tap(AsId(30));
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.schedule_withdraw(SimTime::from_mins(1), AsId(10), pfx());
        net.run_to_quiescence();
        assert!(net.router(AsId(30)).unwrap().best(pfx()).is_none());
        let log = net.tap_log();
        assert_eq!(log.len(), 2);
        assert!(log[1].route.is_none(), "second record is the withdrawal");
    }

    #[test]
    fn propagation_delay_accumulates_per_hop() {
        let mut net = line();
        net.attach_tap(AsId(30));
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        let rec = &net.tap_log()[0];
        // Two hops at exactly 50 ms (jitter 0).
        assert_eq!(rec.time, SimTime::from_millis(100));
    }

    #[test]
    fn fifo_preserved_on_links() {
        // With jitter on, deliveries on one link must never reorder.
        let mut net = Network::new(NetworkConfig {
            default_link_delay: SimDuration::from_millis(80),
            jitter: 2.0,
            seed: 42,
            ..Default::default()
        });
        net.connect(
            AsId(1),
            AsId(2),
            SessionPolicy::plain(Relationship::Peer),
            SessionPolicy::plain(Relationship::Peer),
            None,
        );
        net.attach_tap(AsId(2));
        // Rapid alternation. If any withdrawal overtook its announcement,
        // the tap log would end announced instead of withdrawn.
        for i in 0..50u64 {
            net.schedule_announce(SimTime::from_millis(i * 20), AsId(1), pfx(), false);
            net.schedule_withdraw(SimTime::from_millis(i * 20 + 10), AsId(1), pfx());
        }
        net.run_to_quiescence();
        let log = net.tap_log();
        assert!(!log.is_empty());
        // Log alternates strictly announce/withdraw (dedup at AS2's RIB
        // guarantees this only if arrival order was FIFO).
        for w in log.windows(2) {
            assert_ne!(w[0].route.is_some(), w[1].route.is_some(), "must alternate");
        }
        assert!(log.last().unwrap().route.is_none());
    }

    #[test]
    fn rfd_on_middle_as_damps_the_chain() {
        // 10 ← 20 ← 30 with AS30 damping its session to 20 (Cisco).
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer).with_rfd(VendorProfile::Cisco.params()),
            None,
        );
        net.attach_tap(AsId(30));

        // Beacon burst: flap every minute for 2 h, ending on an announce.
        let mut t = SimTime::ZERO;
        for i in 0..120u64 {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
            t = SimTime::from_mins(i);
        }
        let burst_end = t;
        net.run_to_quiescence();

        assert!(
            !net.router(AsId(30)).unwrap().is_suppressed(AsId(20), pfx()),
            "suppression must have been released at quiescence"
        );
        // The last tap record must be the delayed re-advertisement, well
        // after the burst end (RFD signature, r-delta ≫ 5 min).
        let log = net.tap_log();
        let last = log.last().unwrap();
        assert!(
            last.route.is_some(),
            "burst ends on announce → re-advertised"
        );
        let r_delta = last.time.saturating_since(burst_end);
        assert!(
            r_delta > SimDuration::from_mins(5),
            "r-delta should exceed 5 min, got {r_delta}"
        );
        assert!(
            r_delta <= VendorProfile::Cisco.params().max_suppress_time + SimDuration::from_mins(1),
            "release within max-suppress-time, got {r_delta}"
        );
        // And during the burst, AS30 saw far fewer updates than the 120
        // beacon events (damping hid them).
        let during_burst = log
            .iter()
            .filter(|r| r.time <= burst_end + SimDuration::from_mins(1))
            .count();
        assert!(
            during_burst < 60,
            "damping must thin the update stream, saw {during_burst}"
        );
    }

    #[test]
    fn stats_count_updates_and_rfd_by_profile() {
        // Same damped-chain setup as above: Cisco RFD at AS30's session.
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer).with_rfd(VendorProfile::Cisco.params()),
            None,
        );
        for i in 0..120u64 {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
        }
        net.run_to_quiescence();
        let stats = net.stats();
        assert!(stats.updates_announced > 0 && stats.updates_withdrawn > 0);
        assert_eq!(
            stats.updates_announced + stats.updates_withdrawn,
            net.delivered()
        );
        let cisco = stats.rfd.get("cisco").expect("cisco profile active");
        assert!(cisco.suppressions >= 1, "flap burst must suppress");
        assert_eq!(
            cisco.suppressions, cisco.releases,
            "every suppression released at quiescence"
        );
        assert!(net.queue_depth_high_water() > 0);

        let mut report = obs::RunReport::new("t");
        net.export_obs(&mut report);
        let section = report.get("bgpsim.network").unwrap();
        assert!(
            matches!(
                section.get("rfd_suppressions.cisco"),
                Some(obs::Value::Counter(n)) if *n == cisco.suppressions
            ),
            "per-profile counters exported"
        );
        assert!(report.get("netsim.queue").is_some());
    }

    #[test]
    fn trace_records_suppress_release_span_and_readvertisement() {
        // Same damped chain as `rfd_on_middle_as_damps_the_chain`, with a
        // trace attached: the suppress→release sim-time gap must land in
        // the (5 min, max-suppress + slack] window the RFD signature
        // requires, and the delayed re-advertisement must be marked.
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer).with_rfd(VendorProfile::Cisco.params()),
            None,
        );
        net.set_trace(obs::TraceBuffer::new(4096));
        for i in 0..120u64 {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
        }
        net.run_to_quiescence();

        let trace = net.take_trace().expect("trace attached");
        assert_eq!(trace.dropped(), 0, "4096 events is plenty here");
        let at = |name: &str, kind: obs::TraceKind| -> Vec<u64> {
            trace
                .events()
                .filter(|e| e.name == name && e.kind == kind)
                .map(|e| match e.time {
                    obs::TraceTime::Sim(ms) => ms,
                    other => panic!("sim lanes only, got {other:?}"),
                })
                .collect()
        };
        let begins = at("suppressed", obs::TraceKind::Begin);
        let ends = at("suppressed", obs::TraceKind::End);
        assert_eq!(begins.len(), 1, "one suppression in this burst");
        assert_eq!(ends.len(), 1);
        let gap = SimTime::from_millis(ends[0]).saturating_since(SimTime::from_millis(begins[0]));
        assert!(
            gap > SimDuration::from_mins(5),
            "r-delta signature, got {gap}"
        );
        // Continued flapping extends the span, but the release can trail
        // the *last* flap (burst end, minute 119) by at most the
        // max-suppress plateau.
        let burst_end = SimTime::from_mins(119);
        let r_delta = SimTime::from_millis(ends[0]).saturating_since(burst_end);
        assert!(
            r_delta <= VendorProfile::Cisco.params().max_suppress_time + SimDuration::from_mins(1),
            "release within max-suppress of burst end, got {r_delta}"
        );
        assert_eq!(at("readvertise", obs::TraceKind::Instant).len(), 1);
        assert!(
            !at("penalty", obs::TraceKind::Counter).is_empty(),
            "penalty samples on the damped lane"
        );
        // The damped session got a named lane.
        let lane = trace
            .events()
            .find(|e| e.name == "suppressed")
            .map(|e| e.lane)
            .unwrap();
        assert_eq!(trace.lane_name(lane), Some("rfd AS30<-AS20 10.0.7.0/24"));
    }

    #[test]
    fn session_reset_drops_traffic_then_resyncs() {
        use netsim::faults::{FaultPlan, FaultSpec};
        // Force a reset on the only 10–20 link of a line network while a
        // beacon announces; after the up-event the route must be back.
        let mut net = line();
        net.attach_tap(AsId(30));
        let plan = FaultPlan::new(FaultSpec {
            session_reset_rate: 1.0,
            session_reset_duration: netsim::SimDuration::from_mins(2),
            seed: 5,
            ..FaultSpec::default()
        });
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.apply_faults(&plan, SimDuration::from_mins(30));
        net.run_to_quiescence();
        assert!(net.faults_applied());
        let counters = net.fault_counters();
        assert_eq!(counters.session_resets, 2, "both links reset at rate 1");
        // After every reset healed, the chain re-converges on the route.
        assert!(
            net.router(AsId(30)).unwrap().best(pfx()).is_some(),
            "route must re-establish after session up"
        );
        // The reset produced visible churn at the vantage point.
        let log = net.tap_log();
        assert!(log.last().unwrap().route.is_some());
    }

    #[test]
    fn session_reset_is_deterministic_and_traced() {
        use netsim::faults::{FaultPlan, FaultSpec};
        let run = |traced: bool| {
            let mut net = line();
            net.attach_tap(AsId(30));
            if traced {
                net.set_trace(obs::TraceBuffer::new(4096));
            }
            let plan = FaultPlan::new(FaultSpec {
                session_reset_rate: 1.0,
                session_reset_duration: netsim::SimDuration::from_mins(2),
                seed: 9,
                ..FaultSpec::default()
            });
            net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
            net.apply_faults(&plan, SimDuration::from_mins(30));
            net.run_to_quiescence();
            net
        };
        let mut a = run(false);
        let mut b = run(true);
        assert_eq!(a.fault_counters(), b.fault_counters());
        assert_eq!(
            a.take_tap_log(),
            b.take_tap_log(),
            "tracing must not perturb"
        );
        let trace = b.take_trace().expect("trace attached");
        assert!(
            trace
                .events()
                .any(|e| e.name == "session_down" && e.kind == obs::TraceKind::Instant),
            "session resets must land on the fault lane"
        );
        assert!(trace
            .events()
            .any(|e| e.name == "session_up" && e.kind == obs::TraceKind::Instant));
        let lane = trace
            .events()
            .find(|e| e.name == "session_down")
            .map(|e| e.lane)
            .unwrap();
        assert!(trace.lane_name(lane).unwrap().starts_with("fault "));
    }

    #[test]
    fn no_fault_plan_keeps_counters_zero() {
        let mut net = line();
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        assert!(!net.faults_applied());
        assert_eq!(net.fault_counters().total(), 0);
    }

    #[test]
    fn untraced_network_keeps_no_trace() {
        let mut net = line();
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        assert!(net.trace().is_none());
        assert!(net.take_trace().is_none());
    }

    /// The damped line (Cisco RFD at AS30's session to AS20) after
    /// `cycles` withdraw/announce beacon cycles, one event a minute.
    fn damped_line_after(cycles: u64) -> Network {
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer).with_rfd(VendorProfile::Cisco.params()),
            None,
        );
        net.attach_tap(AsId(30));
        for i in 0..2 * cycles {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
        }
        net.run_to_quiescence();
        net
    }

    #[test]
    fn interned_paths_stay_bounded_under_flapping() {
        let short = damped_line_after(60);
        let long = damped_line_after(120);
        assert!(long.delivered() > short.delivered());
        assert!(short.interned_paths() > 0);
        assert_eq!(
            long.interned_paths(),
            short.interned_paths(),
            "the path memo must not grow with the number of flaps"
        );
        let mut report = obs::RunReport::new("t");
        long.export_obs(&mut report);
        assert!(matches!(
            report.get("bgpsim.network").unwrap().get("interned_paths"),
            Some(obs::Value::Counter(n)) if *n == long.interned_paths()
        ));
        // Every record at the vantage point shares the one interned path.
        let paths: Vec<&AsPath> = long
            .tap_log()
            .iter()
            .filter_map(|r| r.route.as_ref().map(|r| &r.path))
            .collect();
        assert!(paths.windows(2).all(|w| w[0].addr() == w[1].addr()));
    }

    #[test]
    fn as_ids_are_sorted_whatever_the_insertion_order() {
        let mut net = Network::new(cfg());
        net.add_router(AsId(30));
        net.connect(
            AsId(20),
            AsId(5),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.add_router(AsId(10));
        net.add_router(AsId(30));
        assert_eq!(net.as_ids(), vec![AsId(5), AsId(10), AsId(20), AsId(30)]);
        assert_eq!(net.router(AsId(20)).unwrap().asn(), AsId(20));
        assert!(net.router(AsId(7)).is_none());
    }

    #[test]
    fn reconnecting_a_pair_updates_its_delay_without_a_second_link() {
        let mut net = Network::new(cfg());
        let peer = SessionPolicy::plain(Relationship::Peer);
        // AS2's session to AS1 is inserted before its session to AS3,
        // moving that one to the next slot.
        net.connect(AsId(3), AsId(2), peer, peer, None);
        net.connect(AsId(1), AsId(2), peer, peer, None);
        net.connect(
            AsId(2),
            AsId(1),
            peer,
            peer,
            Some(SimDuration::from_millis(200)),
        );
        assert_eq!(net.links.len(), 4, "two sessions, two directions each");
        assert_eq!(
            net.router(AsId(2)).unwrap().neighbor_ids(),
            vec![AsId(1), AsId(3)]
        );
        // Every link's slot still names its receiver.
        for l in &net.links {
            let sender = &net.routers[l.from as usize];
            assert_eq!(sender.neighbor_asn(l.slot as usize), net.asn(l.to));
        }
        net.attach_tap(AsId(2));
        net.schedule_announce(SimTime::ZERO, AsId(1), pfx(), false);
        net.run_to_quiescence();
        assert_eq!(net.tap_log()[0].time, SimTime::from_millis(200));
    }

    #[test]
    fn origination_at_an_unknown_as_is_a_processed_no_op() {
        let mut net = line();
        net.attach_tap(AsId(30));
        net.schedule_announce(SimTime::ZERO, AsId(99), pfx(), true);
        net.schedule_withdraw(SimTime::from_secs(1), AsId(99), pfx());
        assert_eq!(net.run_to_quiescence(), 2);
        assert_eq!(net.events_processed(), 2);
        assert_eq!(net.delivered(), 0);
        assert!(net.tap_log().is_empty());
        assert_eq!(net.as_ids(), vec![AsId(10), AsId(20), AsId(30)]);
        for asn in net.as_ids() {
            assert!(net.router(asn).unwrap().best(pfx()).is_none());
        }
        assert_eq!(net.interned_paths(), 0);
    }

    #[test]
    fn apply_faults_resets_sessions_in_as_order() {
        use netsim::faults::{FaultPlan, FaultSpec};
        // Sessions connected out of order, some from the higher AS.
        let mut net = Network::new(cfg());
        let peer = SessionPolicy::plain(Relationship::Peer);
        for (a, b) in [(30, 20), (10, 40), (20, 10), (40, 30), (10, 30)] {
            net.connect(AsId(a), AsId(b), peer, peer, None);
        }
        let plan = FaultPlan::new(FaultSpec {
            session_reset_rate: 1.0,
            session_reset_duration: SimDuration::from_mins(2),
            seed: 11,
            ..FaultSpec::default()
        });
        // A 1 ms horizon starts every reset at t = 0, so the resets pop in
        // the order they were scheduled.
        net.apply_faults(&plan, SimDuration::from_millis(1));
        let mut downs = Vec::new();
        while let Some((at, ev)) = net.queue.pop() {
            if let NetEvent::SessionDown { link } = ev {
                assert_eq!(at, SimTime::ZERO);
                let l = &net.links[link as usize];
                downs.push((net.asn(l.from).0, net.asn(l.to).0));
            }
        }
        assert_eq!(
            downs,
            vec![(10, 20), (10, 30), (10, 40), (20, 30), (30, 40)],
            "each session once, from its lower AS, in (AS, AS) order"
        );
    }

    #[test]
    fn no_rfd_chain_sees_every_flap() {
        let mut net = line();
        net.attach_tap(AsId(30));
        for i in 0..20u64 {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
        }
        net.run_to_quiescence();
        // 10 withdrawals (first is duplicate: nothing announced yet) and
        // 10 announcements → 19 Loc-RIB changes at the VP.
        assert_eq!(net.tap_log().len(), 19);
    }

    #[test]
    fn multihomed_stub_triggers_path_hunting() {
        // 1 (origin) ← 2 and 1 ← 3; 2 and 3 both customers of 4.
        // When 2's session to 1 withdraws, 4 should hunt to the 3-path.
        let mut net = Network::new(cfg());
        let cust = SessionPolicy::plain(Relationship::Customer);
        let prov = SessionPolicy::plain(Relationship::Provider);
        net.connect(
            AsId(1),
            AsId(2),
            prov,
            cust,
            Some(SimDuration::from_millis(10)),
        );
        net.connect(
            AsId(1),
            AsId(3),
            prov,
            cust,
            Some(SimDuration::from_millis(500)),
        );
        net.connect(
            AsId(2),
            AsId(4),
            prov,
            cust,
            Some(SimDuration::from_millis(10)),
        );
        net.connect(
            AsId(3),
            AsId(4),
            prov,
            cust,
            Some(SimDuration::from_millis(10)),
        );
        net.attach_tap(AsId(4));
        net.schedule_announce(SimTime::ZERO, AsId(1), pfx(), false);
        net.run_to_quiescence();
        let withdrawal_at = net.now() + SimDuration::from_secs(10);
        net.schedule_withdraw(withdrawal_at, AsId(1), pfx());
        net.run_to_quiescence();
        let log = net.tap_log();
        // Sequence at AS4: announce (via 2, faster), maybe announce (via 3
        // after tie-up), then on withdrawal: hunt to the other path before
        // the final withdrawal arrives.
        assert!(log.last().unwrap().route.is_none(), "eventually withdrawn");
        let hunts = log
            .iter()
            .filter(|r| r.time > withdrawal_at && r.route.is_some())
            .count();
        assert!(
            hunts >= 1,
            "expected at least one alternative-path announcement"
        );
    }
}
