//! A BGP-speaking router for one AS.
//!
//! [`Router`] is a *pure* state machine: it never touches the event queue.
//! Every entry point (an incoming update, a timer expiry, a local
//! origination) returns a [`RouterOutput`] describing what must happen
//! next — messages to put on the wire, timers to arm, and the Loc-RIB
//! change (if any) for vantage-point taps. The [`crate::network::Network`]
//! driver translates those into scheduled events. Keeping the router pure
//! makes the RFD/MRAI interactions unit-testable without a simulator.
//!
//! Processing pipeline for an incoming update (mirroring RFC 4271 + 2439):
//!
//! 1. receiver-side loop detection (a path containing the local ASN is
//!    treated as unfeasible, i.e. an implicit withdrawal);
//! 2. Adj-RIB-In update + flap classification (initial / duplicate /
//!    attribute change / re-advertisement / withdrawal);
//! 3. RFD penalty accounting on the (prefix, session), possibly
//!    suppressing or releasing the route;
//! 4. decision process over all usable candidates;
//! 5. export diffing against the per-neighbor Adj-RIB-Out under the
//!    Gao–Rexford filter, with MRAI gating on announcements.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use netsim::SimTime;

use crate::decision::{select_best, Candidate};
use crate::message::{AggregatorStamp, AsId, AsPath, BgpAction, BgpUpdate};
use crate::mrai::{MraiGate, MraiVerdict};
use crate::policy::{ExportPolicy, Relationship, SessionPolicy};
use crate::prefix::Prefix;
use crate::prefix_map::PrefixMap;
use crate::rfd::{FlapKind, RfdTransition};
use crate::rib::{AdjEntry, Route};

/// The link id of a session on a router that no network owns.
pub(crate) const NO_LINK: u32 = u32::MAX;

/// What a router selected for a prefix.
#[derive(Clone, Debug, PartialEq)]
pub enum Selection {
    /// The prefix is locally originated.
    Local {
        /// The stamp the origination carries.
        aggregator: Option<AggregatorStamp>,
    },
    /// Best route learned from a neighbor.
    Learned {
        /// The neighbor it was learned from.
        neighbor: AsId,
        /// The route as received.
        route: Route,
    },
}

/// A Loc-RIB change, reported so vantage-point taps can record it.
#[derive(Clone, Debug, PartialEq)]
pub struct LocRibChange {
    /// The affected prefix.
    pub prefix: Prefix,
    /// The new best route in exported view (`None` = prefix unreachable).
    pub route: Option<Route>,
}

/// Everything a router wants done after processing one input.
///
/// Peers are named by their *slot*: the position of the session in the
/// router's session list, which is sorted by peer AS number
/// ([`Router::neighbor_asn`] maps a slot back to the AS).
#[derive(Debug, Default)]
pub struct RouterOutput {
    /// Updates to deliver to neighbors (after link delay): (slot, update).
    pub sends: Vec<(usize, BgpUpdate)>,
    /// MRAI expiry timers to arm: (slot, prefix, fire-at).
    pub mrai_timers: Vec<(usize, Prefix, SimTime)>,
    /// RFD reuse timers to arm: (slot, prefix, fire-at).
    pub rfd_timers: Vec<(usize, Prefix, SimTime)>,
    /// The Loc-RIB change, if the best route moved.
    pub loc_rib_change: Option<LocRibChange>,
    /// Announcements the MRAI gate deferred while processing this input.
    pub mrai_deferrals: u32,
    /// True if this input drove an RFD state into suppression.
    pub rfd_suppressed: bool,
    /// True if this input released a suppressed RFD state.
    pub rfd_released: bool,
}

#[derive(Debug)]
struct Session {
    asn: AsId,
    /// The owning network's directed link towards `asn` ([`NO_LINK`] on
    /// a standalone router).
    link: u32,
    policy: SessionPolicy,
    mrai: MraiGate,
}

/// A router's state for one prefix. The per-session tables are indexed
/// by slot, so the decision process and the export diff each scan one
/// contiguous array.
#[derive(Debug, Default)]
struct PrefixState {
    /// Adj-RIB-In: each neighbor's route, with its damping state.
    adj_in: Vec<AdjEntry>,
    /// Adj-RIB-Out: the route last advertised to each neighbor.
    adj_out: Vec<Option<Route>>,
    /// The stamp of the local origination, if the router originates it.
    originated: Option<Option<AggregatorStamp>>,
    /// Loc-RIB: the selected best route.
    best: Option<Selection>,
}

/// Exported paths, hash-consed per router.
///
/// A router prepends its own ASN to every path it exports, so memoising
/// (learned path, prepend count) → exported path allocates each distinct
/// path of a run once, and the Loc-RIB view, every Adj-RIB-Out entry and
/// every in-flight update share it. The memo is keyed by the learned
/// path's address; it holds the learned path, so that address cannot be
/// reused while the entry exists.
#[derive(Debug, Default)]
struct PathMemo {
    /// The one-hop path `[own ASN]` of locally originated routes.
    own: Option<AsPath>,
    prepended: HashMap<(usize, usize), (AsPath, AsPath), BuildHasherDefault<AddrHasher>>,
}

impl PathMemo {
    fn prepend(&mut self, path: &AsPath, asn: AsId, count: usize) -> AsPath {
        let (_, exported) = self
            .prepended
            .entry((path.addr(), count))
            .or_insert_with(|| (path.clone(), path.prepend(asn, count)));
        exported.clone()
    }

    /// The route as `asn` describes a selection to an observer peering
    /// with it (own ASN prepended) — the view a route collector records.
    fn view(&mut self, asn: AsId, selection: &Selection) -> Route {
        match selection {
            Selection::Local { aggregator } => Route {
                path: self
                    .own
                    .get_or_insert_with(|| AsPath::from_slice(&[asn]))
                    .clone(),
                aggregator: *aggregator,
            },
            Selection::Learned { route, .. } => Route {
                path: self.prepend(&route.path, asn, 1),
                aggregator: route.aggregator,
            },
        }
    }

    fn len(&self) -> usize {
        usize::from(self.own.is_some()) + self.prepended.len()
    }
}

/// Multiplicative hashing of the memo's (address, count) keys; SipHash
/// would cost more than the lookup it guards.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One AS's router.
#[derive(Debug)]
pub struct Router {
    asn: AsId,
    /// Sessions sorted by peer AS number: the decision process and the
    /// export loop visit peers in this order.
    sessions: Vec<Session>,
    prefixes: PrefixMap<PrefixState>,
    exports: PathMemo,
}

impl Router {
    /// A router for the given AS with no sessions.
    pub fn new(asn: AsId) -> Self {
        Router {
            asn,
            sessions: Vec::new(),
            prefixes: PrefixMap::default(),
            exports: PathMemo::default(),
        }
    }

    /// This router's AS number.
    pub fn asn(&self) -> AsId {
        self.asn
    }

    /// Add (or reconfigure) a session to `peer`.
    pub fn add_session(&mut self, peer: AsId, policy: SessionPolicy) {
        self.add_session_on(peer, NO_LINK, policy);
    }

    /// Add (or reconfigure, resetting its state) the session to `peer`
    /// over directed link `link`. Returns the slots whose session is new
    /// or moved: a new session shifts every later slot up by one.
    pub(crate) fn add_session_on(
        &mut self,
        peer: AsId,
        link: u32,
        policy: SessionPolicy,
    ) -> Range<usize> {
        assert_ne!(peer, self.asn, "cannot peer with self");
        let session = Session {
            asn: peer,
            link,
            policy,
            mrai: MraiGate::new(policy.mrai),
        };
        match self.sessions.binary_search_by_key(&peer, |s| s.asn) {
            Ok(slot) => {
                self.sessions[slot] = session;
                for (_, state) in self.prefixes.iter_mut() {
                    state.adj_in[slot] = AdjEntry::default();
                    state.adj_out[slot] = None;
                }
                slot..slot + 1
            }
            Err(slot) => {
                self.sessions.insert(slot, session);
                for (_, state) in self.prefixes.iter_mut() {
                    state.adj_in.insert(slot, AdjEntry::default());
                    state.adj_out.insert(slot, None);
                }
                slot..self.sessions.len()
            }
        }
    }

    /// Room for `additional` more sessions without reallocating.
    pub(crate) fn reserve_sessions(&mut self, additional: usize) {
        self.sessions.reserve_exact(additional);
    }

    /// The slot of the session to `peer`, if one exists.
    pub(crate) fn slot(&self, peer: AsId) -> Option<usize> {
        self.sessions.binary_search_by_key(&peer, |s| s.asn).ok()
    }

    /// The directed link of the session in `slot`.
    pub(crate) fn link(&self, slot: usize) -> u32 {
        self.sessions[slot].link
    }

    /// The session policy in `slot`.
    pub(crate) fn policy(&self, slot: usize) -> &SessionPolicy {
        &self.sessions[slot].policy
    }

    /// The session policy towards `peer`, if a session exists.
    pub fn session_policy(&self, peer: AsId) -> Option<&SessionPolicy> {
        self.slot(peer).map(|slot| self.policy(slot))
    }

    /// All neighbor ASNs (deterministic order).
    pub fn neighbor_ids(&self) -> Vec<AsId> {
        self.sessions.iter().map(|s| s.asn).collect()
    }

    /// The peer AS of the session in `slot` (as named in a
    /// [`RouterOutput`]).
    pub fn neighbor_asn(&self, slot: usize) -> AsId {
        self.sessions[slot].asn
    }

    /// The current best selection for `prefix`, if reachable.
    pub fn best(&self, prefix: Prefix) -> Option<&Selection> {
        self.prefixes.get(prefix)?.best.as_ref()
    }

    /// The Adj-RIB-In entry for (peer, prefix), if the prefix was seen.
    fn adj_in(&self, peer: AsId, prefix: Prefix) -> Option<&AdjEntry> {
        Some(&self.prefixes.get(prefix)?.adj_in[self.slot(peer)?])
    }

    /// Whether the route from `peer` for `prefix` is currently suppressed.
    pub fn is_suppressed(&self, peer: AsId, prefix: Prefix) -> bool {
        self.adj_in(peer, prefix)
            .is_some_and(|e| e.rfd.is_suppressed())
    }

    /// Current RFD penalty on (peer, prefix) at `now`, if RFD is enabled.
    pub fn rfd_penalty(&self, peer: AsId, prefix: Prefix, now: SimTime) -> Option<f64> {
        let params = self.session_policy(peer)?.rfd_for(prefix)?;
        Some(
            self.adj_in(peer, prefix)
                .map(|e| e.rfd.penalty_at(now, params))
                .unwrap_or(0.0),
        )
    }

    /// Distinct exported paths this router has built so far.
    pub(crate) fn interned_paths(&self) -> usize {
        self.exports.len()
    }

    /// The state for `prefix`, created (with a default entry per
    /// session) on first touch.
    fn state(&mut self, prefix: Prefix) -> &mut PrefixState {
        let sessions = self.sessions.len();
        let state = self.prefixes.entry(prefix);
        if state.adj_in.len() != sessions {
            state.adj_in.resize_with(sessions, AdjEntry::default);
            state.adj_out.resize(sessions, None);
        }
        state
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Process an update received from `from`.
    pub fn handle_update(&mut self, from: AsId, update: BgpUpdate, now: SimTime) -> RouterOutput {
        let mut out = RouterOutput::default();
        // No session: not modelled as an error — deliveries may race a
        // reconfiguration in principle.
        if let Some(slot) = self.slot(from) {
            self.handle_update_at(slot, update, now, &mut out);
        }
        out
    }

    /// [`Router::handle_update`] for the session in `slot`, appending to
    /// `out`.
    pub(crate) fn handle_update_at(
        &mut self,
        slot: usize,
        update: BgpUpdate,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let own = self.asn;
        let prefix = update.prefix;
        let params = self.sessions[slot].policy.rfd_for(prefix).copied();
        let entry = &mut self.state(prefix).adj_in[slot];

        // 1. Loop detection: a path carrying our ASN makes the route
        //    unfeasible — treat as withdrawal, without an RFD penalty
        //    (RFC 2439 penalises route *changes*, and an unfeasible
        //    announcement never enters the RIB).
        let action = match update.action {
            BgpAction::Announce { ref path, .. } if path.contains(own) => BgpAction::Withdraw,
            other => other,
        };

        // 2. Adj-RIB-In + flap classification.
        let (kind, rib_changed) = match action {
            BgpAction::Announce { path, aggregator } => {
                entry.apply_announce(Route { path, aggregator }, now)
            }
            BgpAction::Withdraw => entry.apply_withdraw(now),
        };

        // 3. RFD penalty accounting.
        let mut usability_changed = rib_changed;
        if let Some(params) = params {
            if kind != FlapKind::Duplicate {
                match entry.rfd.record(kind, now, &params) {
                    RfdTransition::Suppressed => {
                        let at = entry
                            .rfd
                            .release_at(&params)
                            .expect("suppressed has release time");
                        out.rfd_timers.push((slot, prefix, at));
                        out.rfd_suppressed = true;
                        usability_changed = true;
                    }
                    RfdTransition::Released => {
                        out.rfd_released = true;
                        usability_changed = true;
                    }
                    RfdTransition::StillSuppressed => {
                        // The route stays invisible; the armed timer will
                        // re-check and re-arm as needed. Nothing visible
                        // changed downstream.
                        usability_changed = false;
                    }
                    RfdTransition::StillUsable => {}
                }
            } else if entry.rfd.is_suppressed() {
                usability_changed = false;
            }
        }

        if usability_changed {
            self.reselect(prefix, now, out);
        }
    }

    /// An RFD reuse timer fired for (peer, prefix).
    pub fn rfd_reuse_fired(&mut self, peer: AsId, prefix: Prefix, now: SimTime) -> RouterOutput {
        let mut out = RouterOutput::default();
        if let Some(slot) = self.slot(peer) {
            self.rfd_reuse_at(slot, prefix, now, &mut out);
        }
        out
    }

    /// [`Router::rfd_reuse_fired`] for the session in `slot`.
    pub(crate) fn rfd_reuse_at(
        &mut self,
        slot: usize,
        prefix: Prefix,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let Some(params) = self.sessions[slot].policy.rfd_for(prefix).copied() else {
            return;
        };
        let Some(state) = self.prefixes.get_mut(prefix) else {
            return;
        };
        let entry = &mut state.adj_in[slot];
        if entry.rfd.tick(now, &params) {
            // Released: the stored route (if any) becomes usable again.
            out.rfd_released = true;
            self.reselect(prefix, now, out);
        } else if entry.rfd.is_suppressed() {
            // Flaps while suppressed pushed the release time out; re-arm.
            // The new deadline must be strictly in the future: exp2/log2
            // rounding can make `release_at` lag `now` by an ulp while the
            // decayed penalty still reads a hair above the reuse
            // threshold, and re-arming at `now` would livelock the event
            // loop.
            let at = entry
                .rfd
                .release_at(&params)
                .expect("still suppressed")
                .max(now + netsim::SimDuration::from_millis(1));
            out.rfd_timers.push((slot, prefix, at));
        }
    }

    /// An MRAI timer fired for (peer, prefix): flush the coalesced update.
    pub fn mrai_expired(&mut self, peer: AsId, prefix: Prefix, now: SimTime) -> RouterOutput {
        let mut out = RouterOutput::default();
        if let Some(slot) = self.slot(peer) {
            self.mrai_expired_at(slot, prefix, now, &mut out);
        }
        out
    }

    /// [`Router::mrai_expired`] for the session in `slot`.
    pub(crate) fn mrai_expired_at(
        &mut self,
        slot: usize,
        prefix: Prefix,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        if let Some(update) = self.sessions[slot].mrai.expire(prefix, now) {
            out.sends.push((slot, update));
        }
    }

    /// Forget what the session in `slot` advertised and discard its MRAI
    /// state, as a session reset does.
    fn reset_session(&mut self, slot: usize) {
        let session = &mut self.sessions[slot];
        session.mrai = MraiGate::new(session.policy.mrai);
        for (_, state) in self.prefixes.iter_mut() {
            state.adj_out[slot] = None;
        }
    }

    /// The session to `peer` went down (e.g. a fault-injected reset).
    ///
    /// The per-session transient state resets with the TCP session: the
    /// Adj-RIB-Out is forgotten (the peer no longer holds our routes)
    /// and the MRAI gate discards its pending/coalesced updates. Every
    /// route learned on the session is implicitly withdrawn *through the
    /// normal RFD-aware path*, so the flap penalty accrues exactly as
    /// RFC 2439 prescribes for session loss. Returns one output per
    /// affected prefix (deterministic prefix order) so the driver can
    /// record each Loc-RIB change individually.
    pub fn session_down(&mut self, peer: AsId, now: SimTime) -> Vec<(Prefix, RouterOutput)> {
        let Some(slot) = self.slot(peer) else {
            return Vec::new();
        };
        self.reset_session(slot);
        let prefixes: Vec<Prefix> = self
            .prefixes
            .iter()
            .filter(|(_, state)| state.adj_in[slot].route.is_some())
            .map(|(p, _)| p)
            .collect();
        prefixes
            .into_iter()
            .map(|prefix| {
                let mut out = RouterOutput::default();
                self.handle_update_at(slot, BgpUpdate::withdraw(prefix), now, &mut out);
                (prefix, out)
            })
            .collect()
    }

    /// The session to `peer` re-established after a reset.
    ///
    /// BGP re-syncs a fresh session with a full table exchange: clear
    /// the (stale) Adj-RIB-Out and MRAI gate, then re-advertise the
    /// entire Loc-RIB towards this peer. On the peer's side each
    /// arriving announcement classifies as a re-advertisement flap —
    /// the RFD penalty cost of a session reset.
    pub fn session_up(&mut self, peer: AsId, now: SimTime) -> Vec<(Prefix, RouterOutput)> {
        let Some(slot) = self.slot(peer) else {
            return Vec::new();
        };
        self.reset_session(slot);
        let own = self.asn;
        let mut outs = Vec::new();
        for (prefix, state) in self.prefixes.iter_mut() {
            let Some(best) = &state.best else {
                continue;
            };
            let mut out = RouterOutput::default();
            let view = self.exports.view(own, best);
            let learned = learned(&self.sessions, best);
            export_one(
                own,
                slot,
                &mut self.sessions[slot],
                &mut state.adj_out[slot],
                &mut self.exports,
                prefix,
                Some(&view),
                learned,
                now,
                &mut out,
            );
            outs.push((prefix, out));
        }
        outs
    }

    /// Originate (announce) `prefix` locally, with an optional beacon stamp.
    pub fn originate(
        &mut self,
        prefix: Prefix,
        aggregator: Option<AggregatorStamp>,
        now: SimTime,
    ) -> RouterOutput {
        let mut out = RouterOutput::default();
        self.originate_into(prefix, aggregator, now, &mut out);
        out
    }

    /// [`Router::originate`], appending to `out`.
    pub(crate) fn originate_into(
        &mut self,
        prefix: Prefix,
        aggregator: Option<AggregatorStamp>,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        self.state(prefix).originated = Some(aggregator);
        self.reselect(prefix, now, out);
    }

    /// Withdraw a locally-originated prefix.
    pub fn withdraw_origin(&mut self, prefix: Prefix, now: SimTime) -> RouterOutput {
        let mut out = RouterOutput::default();
        self.withdraw_origin_into(prefix, now, &mut out);
        out
    }

    /// [`Router::withdraw_origin`], appending to `out`.
    pub(crate) fn withdraw_origin_into(
        &mut self,
        prefix: Prefix,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        if let Some(state) = self.prefixes.get_mut(prefix) {
            state.originated = None;
            self.reselect(prefix, now, out);
        }
    }

    // ------------------------------------------------------------------
    // Decision + export
    // ------------------------------------------------------------------

    /// Re-run the decision process for `prefix` and export any change.
    ///
    /// The exported view is built once (interned) and shared by the
    /// Loc-RIB change and every neighbor's advertisement.
    fn reselect(&mut self, prefix: Prefix, now: SimTime, out: &mut RouterOutput) {
        let own = self.asn;
        let Some(state) = self.prefixes.get_mut(prefix) else {
            return;
        };
        let new = compute_best(own, &self.sessions, state);
        if state.best == new {
            return;
        }
        let view = new.as_ref().map(|sel| self.exports.view(own, sel));
        let learned = new.as_ref().and_then(|sel| learned(&self.sessions, sel));
        state.best = new;
        for (slot, (session, adj_out)) in
            self.sessions.iter_mut().zip(&mut state.adj_out).enumerate()
        {
            export_one(
                own,
                slot,
                session,
                adj_out,
                &mut self.exports,
                prefix,
                view.as_ref(),
                learned,
                now,
                out,
            );
        }
        out.loc_rib_change = Some(LocRibChange {
            prefix,
            route: view,
        });
    }
}

/// The decision process over every usable route for one prefix.
fn compute_best(own: AsId, sessions: &[Session], state: &PrefixState) -> Option<Selection> {
    if let Some(aggregator) = state.originated {
        return Some(Selection::Local { aggregator });
    }
    let candidates = sessions.iter().zip(&state.adj_in).filter_map(|(s, entry)| {
        let route = entry.usable()?;
        // Defensive loop check (sender-side split horizon should make
        // this unreachable, but policy bugs must not loop forever).
        if route.path.contains(own) {
            return None;
        }
        Some(Candidate {
            neighbor: s.asn,
            relationship: s.policy.relationship,
            route,
        })
    });
    select_best(candidates).map(|c| Selection::Learned {
        neighbor: c.neighbor,
        route: c.route.clone(),
    })
}

/// The slot and relationship a learned selection came over (split
/// horizon and the Gao–Rexford filter need both); `None` when local.
fn learned(sessions: &[Session], selection: &Selection) -> Option<(usize, Relationship)> {
    match selection {
        Selection::Learned { neighbor, .. } => {
            let slot = sessions
                .binary_search_by_key(neighbor, |s| s.asn)
                .expect("learned over a session");
            Some((slot, sessions[slot].policy.relationship))
        }
        Selection::Local { .. } => None,
    }
}

/// The per-neighbor half of the export: decide the desired advertisement
/// from the shared exported `view`, diff it against the Adj-RIB-Out
/// entry, and push the resulting update through the MRAI gate.
#[allow(clippy::too_many_arguments)]
fn export_one(
    own: AsId,
    slot: usize,
    session: &mut Session,
    adj_out: &mut Option<Route>,
    exports: &mut PathMemo,
    prefix: Prefix,
    view: Option<&Route>,
    learned: Option<(usize, Relationship)>,
    now: SimTime,
    out: &mut RouterOutput,
) {
    // Split horizon (never advertise back to the peer the route was
    // learned from) and the export policy decide whether to advertise.
    let permitted = match learned {
        Some((from, rel)) => {
            from != slot && ExportPolicy::permits(Some(rel), session.policy.relationship)
        }
        None => true,
    };
    let desired = view.filter(|_| permitted).map(|view| {
        let extra = session.policy.prepend_extra;
        if extra > 0 {
            Route {
                path: exports.prepend(&view.path, own, extra),
                aggregator: view.aggregator,
            }
        } else {
            view.clone()
        }
    });

    if *adj_out == desired {
        return;
    }
    let update = match &desired {
        Some(route) => BgpUpdate::announce(prefix, route.path.clone(), route.aggregator),
        None => BgpUpdate::withdraw(prefix),
    };
    *adj_out = desired;
    match session.mrai.submit(update, now) {
        MraiVerdict::SendNow(u) => out.sends.push((slot, u)),
        MraiVerdict::Deferred { at, arm } => {
            out.mrai_deferrals += 1;
            if arm {
                out.mrai_timers.push((slot, prefix, at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Relationship;
    use crate::rfd::VendorProfile;
    use netsim::SimDuration;

    fn pfx() -> Prefix {
        "10.0.0.0/24".parse().unwrap()
    }

    fn plain(rel: Relationship) -> SessionPolicy {
        SessionPolicy::plain(rel)
    }

    /// Router AS1 with customer AS2 and provider AS3.
    fn sample_router() -> Router {
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        r.add_session(AsId(3), plain(Relationship::Provider));
        r
    }

    fn announce_from(origin: u32) -> BgpUpdate {
        BgpUpdate::announce(pfx(), AsPath::from_slice(&[AsId(origin)]), None)
    }

    #[test]
    fn origination_exports_to_all_neighbors() {
        let mut r = sample_router();
        let out = r.originate(
            pfx(),
            Some(AggregatorStamp::new(SimTime::ZERO)),
            SimTime::ZERO,
        );
        assert_eq!(out.sends.len(), 2);
        for (_, u) in &out.sends {
            match &u.action {
                BgpAction::Announce { path, aggregator } => {
                    assert_eq!(path.asns(), &[AsId(1)]);
                    assert!(aggregator.is_some());
                }
                _ => panic!("expected announce"),
            }
        }
        assert!(matches!(r.best(pfx()), Some(Selection::Local { .. })));
    }

    #[test]
    fn learned_route_prepends_own_asn_on_export() {
        let mut r = sample_router();
        let out = r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        // Learned from customer → export to provider AS3 (not back to AS2).
        assert_eq!(out.sends.len(), 1);
        let (to, u) = &out.sends[0];
        assert_eq!(r.neighbor_asn(*to), AsId(3));
        match &u.action {
            BgpAction::Announce { path, .. } => assert_eq!(path.asns(), &[AsId(1), AsId(2)]),
            _ => panic!("expected announce"),
        }
    }

    #[test]
    fn provider_route_not_exported_to_other_provider_or_peer() {
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Provider));
        r.add_session(AsId(3), plain(Relationship::Provider));
        r.add_session(AsId(4), plain(Relationship::Peer));
        r.add_session(AsId(5), plain(Relationship::Customer));
        let out = r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        let dests: Vec<AsId> = out.sends.iter().map(|(d, _)| r.neighbor_asn(*d)).collect();
        assert_eq!(
            dests,
            vec![AsId(5)],
            "provider route goes only to customers"
        );
    }

    #[test]
    fn withdrawal_retracts_only_where_advertised() {
        let mut r = sample_router();
        r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        let out = r.handle_update(AsId(2), BgpUpdate::withdraw(pfx()), SimTime::from_secs(1));
        assert_eq!(out.sends.len(), 1);
        let (to, u) = &out.sends[0];
        assert_eq!(r.neighbor_asn(*to), AsId(3));
        assert!(matches!(u.action, BgpAction::Withdraw));
        assert!(r.best(pfx()).is_none());
    }

    #[test]
    fn duplicate_withdrawal_is_silent() {
        let mut r = sample_router();
        let out = r.handle_update(AsId(2), BgpUpdate::withdraw(pfx()), SimTime::ZERO);
        assert!(out.sends.is_empty());
        assert!(out.loc_rib_change.is_none());
    }

    #[test]
    fn path_hunting_switches_to_alternative() {
        // AS1 has two customers advertising the same prefix.
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        r.add_session(AsId(4), plain(Relationship::Customer));
        r.add_session(AsId(3), plain(Relationship::Provider));
        r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        r.handle_update(
            AsId(4),
            BgpUpdate::announce(pfx(), AsPath::from_slice(&[AsId(4), AsId(9)]), None),
            SimTime::from_secs(1),
        );
        // Best is AS2 (shorter). Withdraw it → switch to AS4's longer path
        // and *announce* (not withdraw) to the provider: path hunting.
        // The best change also retracts the old advertisement towards AS4
        // (now the learning neighbor) and offers the new best to AS2.
        let out = r.handle_update(AsId(2), BgpUpdate::withdraw(pfx()), SimTime::from_secs(2));
        let to_provider: Vec<_> = out
            .sends
            .iter()
            .filter(|(to, _)| r.neighbor_asn(*to) == AsId(3))
            .collect();
        assert_eq!(to_provider.len(), 1);
        match &to_provider[0].1.action {
            BgpAction::Announce { path, .. } => {
                assert_eq!(path.asns(), &[AsId(1), AsId(4), AsId(9)]);
            }
            _ => panic!("expected alternative-path announce"),
        }
        // Split horizon: the new advertisement never goes back to AS4.
        assert!(out
            .sends
            .iter()
            .filter(|(to, _)| r.neighbor_asn(*to) == AsId(4))
            .all(|(_, u)| matches!(u.action, BgpAction::Withdraw)));
    }

    #[test]
    fn looped_announcement_treated_as_withdrawal() {
        let mut r = sample_router();
        r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        // AS2 now (bogusly) sends a path containing AS1.
        let looped = BgpUpdate::announce(pfx(), AsPath::from_slice(&[AsId(2), AsId(1)]), None);
        let out = r.handle_update(AsId(2), looped, SimTime::from_secs(1));
        assert!(r.best(pfx()).is_none());
        assert!(out
            .sends
            .iter()
            .any(|(_, u)| matches!(u.action, BgpAction::Withdraw)));
    }

    #[test]
    fn rfd_suppression_withdraws_downstream_and_releases_later() {
        let params = VendorProfile::Cisco.params();
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer).with_rfd(params));
        r.add_session(AsId(3), plain(Relationship::Provider));

        let mut now = SimTime::ZERO;
        let mut suppressed_at = None;
        // Flap until suppression: W/A alternating every 60 s.
        for i in 0..40 {
            let out = if i % 2 == 0 {
                r.handle_update(AsId(2), BgpUpdate::withdraw(pfx()), now)
            } else {
                r.handle_update(AsId(2), announce_from(2), now)
            };
            if let Some(&(_, _, at)) = out.rfd_timers.first() {
                suppressed_at = Some((now, at));
                break;
            }
            now += SimDuration::from_secs(60);
        }
        let (t_supp, t_release) = suppressed_at.expect("suppression must trigger");
        assert!(r.is_suppressed(AsId(2), pfx()));
        assert!(t_release > t_supp + SimDuration::from_mins(10));

        // While suppressed, further updates do not propagate downstream.
        let out = r.handle_update(
            AsId(2),
            announce_from(2),
            t_supp + SimDuration::from_secs(60),
        );
        assert!(out.sends.is_empty(), "suppressed flaps must not export");

        // The reuse timer may need re-arming (the extra flap above pushed
        // release later); follow the chain until release.
        let mut fire_at = t_release;
        let mut released = false;
        for _ in 0..10 {
            let out = r.rfd_reuse_fired(AsId(2), pfx(), fire_at);
            if let Some(&(_, _, at)) = out.rfd_timers.first() {
                fire_at = at;
                continue;
            }
            // Released: the stored announcement re-exports downstream.
            released = true;
            assert!(
                out.sends
                    .iter()
                    .any(|(to, u)| r.neighbor_asn(*to) == AsId(3) && u.action.is_announce()),
                "release must re-advertise"
            );
            break;
        }
        assert!(released, "route must eventually be released");
        assert!(!r.is_suppressed(AsId(2), pfx()));
    }

    #[test]
    fn reuse_timer_rearm_chain_terminates_and_moves_forward() {
        // Regression: firing the reuse timer early must re-arm at a
        // strictly later instant (float rounding in the decay/inverse
        // pair once produced `release_at == now` with the route still
        // suppressed, livelocking the event loop).
        let params = VendorProfile::Juniper.params();
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer).with_rfd(params));
        r.add_session(AsId(3), plain(Relationship::Provider));
        let mut now = SimTime::ZERO;
        while !r.is_suppressed(AsId(2), pfx()) {
            r.handle_update(AsId(2), BgpUpdate::withdraw(pfx()), now);
            now += SimDuration::from_secs(30);
            r.handle_update(AsId(2), announce_from(2), now);
            now += SimDuration::from_secs(30);
        }
        // Fire deliberately early, then follow the re-arm chain.
        let mut fire_at = now + SimDuration::from_secs(1);
        for _ in 0..100_000 {
            let out = r.rfd_reuse_fired(AsId(2), pfx(), fire_at);
            match out.rfd_timers.first() {
                Some(&(_, _, at)) => {
                    assert!(at > fire_at, "re-arm must move forward: {at} vs {fire_at}");
                    fire_at = at;
                }
                None => {
                    assert!(!r.is_suppressed(AsId(2), pfx()));
                    return;
                }
            }
        }
        panic!("re-arm chain did not terminate");
    }

    #[test]
    fn rfd_only_applies_to_configured_session() {
        let params = VendorProfile::Juniper.params();
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Peer).with_rfd(params));
        r.add_session(AsId(4), plain(Relationship::Peer));
        r.add_session(AsId(3), plain(Relationship::Customer));

        let mut now = SimTime::ZERO;
        for i in 0..30 {
            let (u2, u4) = if i % 2 == 0 {
                (BgpUpdate::withdraw(pfx()), BgpUpdate::withdraw(pfx()))
            } else {
                (
                    announce_from(2),
                    BgpUpdate::announce(pfx(), AsPath::from_slice(&[AsId(4)]), None),
                )
            };
            r.handle_update(AsId(2), u2, now);
            r.handle_update(AsId(4), u4, now);
            now += SimDuration::from_secs(60);
        }
        assert!(r.is_suppressed(AsId(2), pfx()));
        assert!(!r.is_suppressed(AsId(4), pfx()));
        // The undamped session still provides a best route.
        assert!(matches!(
            r.best(pfx()),
            Some(Selection::Learned { neighbor, .. }) if *neighbor == AsId(4)
        ));
    }

    #[test]
    fn mrai_defers_rapid_announcements() {
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        r.add_session(
            AsId(3),
            plain(Relationship::Provider).with_mrai(SimDuration::from_secs(30)),
        );
        // First announce passes.
        let out = r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        assert_eq!(out.sends.len(), 1);
        // Attribute change 5 s later defers (gate closed).
        let changed = BgpUpdate::announce(pfx(), AsPath::from_slice(&[AsId(2), AsId(9)]), None);
        let out = r.handle_update(AsId(2), changed, SimTime::from_secs(5));
        assert!(out.sends.is_empty());
        assert_eq!(out.mrai_timers.len(), 1);
        let (slot, prefix, at) = out.mrai_timers[0];
        let peer = r.neighbor_asn(slot);
        assert_eq!((peer, prefix), (AsId(3), pfx()));
        // Expiry flushes the pending (coalesced) announcement.
        let out = r.mrai_expired(peer, prefix, at);
        assert_eq!(out.sends.len(), 1);
        assert!(out.sends[0].1.action.is_announce());
    }

    #[test]
    fn prepend_extra_lengthens_exported_path() {
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        let mut pol = plain(Relationship::Provider);
        pol.prepend_extra = 2;
        r.add_session(AsId(3), pol);
        let out = r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        let (_, u) = &out.sends[0];
        match &u.action {
            BgpAction::Announce { path, .. } => {
                assert_eq!(path.asns(), &[AsId(1), AsId(1), AsId(1), AsId(2)]);
            }
            _ => panic!("expected announce"),
        }
    }

    #[test]
    fn loc_rib_change_reports_exported_view() {
        let mut r = sample_router();
        let out = r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        let change = out.loc_rib_change.expect("best changed");
        assert_eq!(change.prefix, pfx());
        let route = change.route.expect("announced");
        assert_eq!(route.path.asns(), &[AsId(1), AsId(2)]);
    }

    #[test]
    fn better_relationship_replaces_current_best() {
        let mut r = sample_router();
        // Provider route first.
        r.handle_update(
            AsId(3),
            BgpUpdate::announce(pfx(), AsPath::from_slice(&[AsId(3)]), None),
            SimTime::ZERO,
        );
        assert!(
            matches!(r.best(pfx()), Some(Selection::Learned { neighbor, .. }) if *neighbor == AsId(3))
        );
        // Customer route displaces it despite equal length.
        let out = r.handle_update(AsId(2), announce_from(2), SimTime::from_secs(1));
        assert!(
            matches!(r.best(pfx()), Some(Selection::Learned { neighbor, .. }) if *neighbor == AsId(2))
        );
        // The new best is customer-learned → exported to the provider.
        assert!(out
            .sends
            .iter()
            .any(|(to, _)| r.neighbor_asn(*to) == AsId(3)));
    }

    #[test]
    fn session_down_withdraws_learned_routes_and_propagates() {
        let mut r = sample_router();
        r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        assert!(r.best(pfx()).is_some());
        let outs = r.session_down(AsId(2), SimTime::from_secs(10));
        assert_eq!(outs.len(), 1);
        let (prefix, out) = &outs[0];
        assert_eq!(*prefix, pfx());
        // The loss propagates downstream as a withdrawal to AS3.
        assert!(out.sends.iter().any(
            |(to, u)| r.neighbor_asn(*to) == AsId(3) && matches!(u.action, BgpAction::Withdraw)
        ));
        assert!(r.best(pfx()).is_none());
    }

    #[test]
    fn session_down_accrues_rfd_penalty() {
        let params = VendorProfile::Cisco.params();
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer).with_rfd(params));
        r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        let before = r
            .rfd_penalty(AsId(2), pfx(), SimTime::from_secs(10))
            .unwrap();
        r.session_down(AsId(2), SimTime::from_secs(10));
        let after = r
            .rfd_penalty(AsId(2), pfx(), SimTime::from_secs(10))
            .unwrap();
        assert!(
            after > before,
            "session loss must be penalised as a flap ({before} -> {after})"
        );
    }

    #[test]
    fn session_up_resyncs_full_loc_rib_to_peer() {
        let mut r = sample_router();
        // AS1 originates one prefix and learns another from AS3.
        let other: Prefix = "10.0.1.0/24".parse().unwrap();
        r.originate(pfx(), None, SimTime::ZERO);
        r.handle_update(
            AsId(3),
            BgpUpdate::announce(other, AsPath::from_slice(&[AsId(3)]), None),
            SimTime::ZERO,
        );
        // Session to the customer AS2 resets.
        r.session_down(AsId(2), SimTime::from_secs(5));
        let outs = r.session_up(AsId(2), SimTime::from_secs(65));
        // Both Loc-RIB prefixes re-advertise towards the customer.
        let announced: Vec<Prefix> = outs
            .iter()
            .flat_map(|(_, out)| out.sends.iter())
            .filter(|(to, u)| r.neighbor_asn(*to) == AsId(2) && u.action.is_announce())
            .map(|(_, u)| u.prefix)
            .collect();
        assert!(announced.contains(&pfx()), "origin must re-advertise");
        assert!(
            announced.contains(&other),
            "learned route must re-advertise"
        );
    }

    #[test]
    fn session_up_readvertisement_flap_classifies_on_receiver() {
        // The receiving side of a re-established session sees the full
        // re-sync as re-advertisement flaps.
        let mut r = sample_router();
        r.handle_update(AsId(2), announce_from(2), SimTime::ZERO);
        r.session_down(AsId(2), SimTime::from_secs(10));
        let entry = r.adj_in(AsId(2), pfx()).unwrap();
        assert!(entry.route.is_none(), "session loss withdraws the route");
        assert!(entry.ever_announced, "history survives the reset");
    }

    #[test]
    fn session_added_after_routes_keeps_each_peers_entry() {
        // AS3's route is stored before the session to AS2 exists; adding
        // AS2 takes the first slot and moves AS3's entry along with it.
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(3), plain(Relationship::Provider));
        r.handle_update(AsId(3), announce_from(3), SimTime::ZERO);
        r.add_session(AsId(2), plain(Relationship::Customer));
        assert_eq!(r.neighbor_ids(), vec![AsId(2), AsId(3)]);
        assert!(r.adj_in(AsId(2), pfx()).unwrap().route.is_none());
        assert!(r.adj_in(AsId(3), pfx()).unwrap().route.is_some());
        // The customer route wins, and is exported to the provider.
        let out = r.handle_update(AsId(2), announce_from(2), SimTime::from_secs(1));
        assert!(matches!(
            r.best(pfx()),
            Some(Selection::Learned { neighbor, .. }) if *neighbor == AsId(2)
        ));
        assert_eq!(out.sends.len(), 1);
        assert_eq!(r.neighbor_asn(out.sends[0].0), AsId(3));
        // Losing it falls back to the provider route stored first.
        r.handle_update(AsId(2), BgpUpdate::withdraw(pfx()), SimTime::from_secs(2));
        assert!(matches!(
            r.best(pfx()),
            Some(Selection::Learned { neighbor, .. }) if *neighbor == AsId(3)
        ));
    }

    #[test]
    fn session_down_without_session_or_routes_is_silent() {
        let mut r = sample_router();
        assert!(r.session_down(AsId(99), SimTime::ZERO).is_empty());
        assert!(r.session_down(AsId(2), SimTime::ZERO).is_empty());
        assert!(r.session_up(AsId(99), SimTime::ZERO).is_empty());
    }
}
