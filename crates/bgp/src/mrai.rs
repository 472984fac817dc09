//! The Minimum Route Advertisement Interval (RFC 4271 §9.2.1.1).
//!
//! MRAI rate-limits *announcements* per (peer, prefix): after sending one,
//! a router must wait out the interval before sending the next; updates
//! arriving in between are coalesced, with the newest replacing older
//! pending state. Withdrawals are sent immediately (the common
//! implementation choice — "WRATE" disabled), which is why MRAI's effect
//! on the beacon signal is a bounded delay of at most the interval, a
//! pattern the paper's §4.1 explicitly distinguishes from the RFD
//! signature (minutes-long suppression).
//!
//! [`MraiGate`] is a pure state machine: the router submits outbound
//! updates and acts on the returned verdicts; the network layer schedules
//! the expiry timers the gate requests.

use netsim::{SimDuration, SimTime};

use crate::message::{BgpAction, BgpUpdate};
use crate::prefix::Prefix;
use crate::prefix_map::PrefixMap;

/// Result of submitting an update to the gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MraiVerdict {
    /// Send the update on the wire now.
    SendNow(BgpUpdate),
    /// The update was queued; arm a timer for `at` (unless one for this
    /// prefix is already armed, which the gate tracks — `arm` is false).
    Deferred {
        /// When the gate reopens for this prefix.
        at: SimTime,
        /// True if the caller must schedule an expiry event at `at`.
        arm: bool,
    },
}

#[derive(Debug, Clone, Default)]
struct Slot {
    /// Earliest time the next announcement may be sent.
    open_at: SimTime,
    /// Latest coalesced update waiting for the gate to open.
    pending: Option<BgpUpdate>,
    /// Whether an expiry event is already scheduled.
    armed: bool,
}

/// Per-neighbor MRAI state over all prefixes.
#[derive(Debug, Clone, Default)]
pub struct MraiGate {
    interval: Option<SimDuration>,
    slots: PrefixMap<Slot>,
}

impl MraiGate {
    /// A gate with the given interval; `None` disables MRAI entirely.
    pub fn new(interval: Option<SimDuration>) -> Self {
        MraiGate {
            interval,
            slots: PrefixMap::default(),
        }
    }

    /// Submit an outbound update; returns what to do with it.
    pub fn submit(&mut self, update: BgpUpdate, now: SimTime) -> MraiVerdict {
        let Some(interval) = self.interval else {
            return MraiVerdict::SendNow(update);
        };
        let slot = self.slots.entry(update.prefix);

        match update.action {
            // Withdrawals bypass the gate and cancel any pending
            // announcement (it would be stale).
            BgpAction::Withdraw => {
                slot.pending = None;
                MraiVerdict::SendNow(update)
            }
            BgpAction::Announce { .. } => {
                if now >= slot.open_at {
                    slot.open_at = now + interval;
                    slot.pending = None;
                    MraiVerdict::SendNow(update)
                } else {
                    slot.pending = Some(update);
                    let at = slot.open_at;
                    let arm = !slot.armed;
                    slot.armed = true;
                    MraiVerdict::Deferred { at, arm }
                }
            }
        }
    }

    /// An expiry timer fired for `prefix`. Returns the coalesced update to
    /// send, if any survived (a withdrawal may have cancelled it).
    pub fn expire(&mut self, prefix: Prefix, now: SimTime) -> Option<BgpUpdate> {
        let interval = self.interval?;
        let slot = self.slots.get_mut(prefix)?;
        slot.armed = false;
        let update = slot.pending.take()?;
        slot.open_at = now + interval;
        Some(update)
    }

    /// The configured interval, if enabled.
    pub fn interval(&self) -> Option<SimDuration> {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::AsId;
    use crate::message::AsPath;

    fn pfx() -> Prefix {
        "10.0.0.0/24".parse().unwrap()
    }

    fn ann(tag: u32) -> BgpUpdate {
        BgpUpdate::announce(pfx(), AsPath::from_slice(&[AsId(tag)]), None)
    }

    #[test]
    fn disabled_gate_passes_everything() {
        let mut g = MraiGate::new(None);
        for t in 0..5 {
            let v = g.submit(ann(t), SimTime::from_secs(t as u64));
            assert!(matches!(v, MraiVerdict::SendNow(_)));
        }
    }

    #[test]
    fn first_announcement_sends_then_defers() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)));
        assert!(matches!(
            g.submit(ann(1), SimTime::ZERO),
            MraiVerdict::SendNow(_)
        ));
        match g.submit(ann(2), SimTime::from_secs(10)) {
            MraiVerdict::Deferred { at, arm } => {
                assert_eq!(at, SimTime::from_secs(30));
                assert!(arm);
            }
            other => panic!("expected deferral, got {other:?}"),
        }
        // A third submit coalesces without re-arming.
        match g.submit(ann(3), SimTime::from_secs(20)) {
            MraiVerdict::Deferred { arm, .. } => assert!(!arm),
            other => panic!("expected deferral, got {other:?}"),
        }
        // Expiry sends the *latest* pending update.
        let sent = g.expire(pfx(), SimTime::from_secs(30)).unwrap();
        assert_eq!(sent, ann(3));
    }

    #[test]
    fn gate_reopens_after_interval() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)));
        g.submit(ann(1), SimTime::ZERO);
        assert!(matches!(
            g.submit(ann(2), SimTime::from_secs(30)),
            MraiVerdict::SendNow(_)
        ));
    }

    #[test]
    fn withdrawal_bypasses_and_cancels_pending() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)));
        g.submit(ann(1), SimTime::ZERO);
        g.submit(ann(2), SimTime::from_secs(5));
        let v = g.submit(BgpUpdate::withdraw(pfx()), SimTime::from_secs(6));
        assert!(matches!(v, MraiVerdict::SendNow(_)));
        // The expiry finds nothing to send.
        assert_eq!(g.expire(pfx(), SimTime::from_secs(30)), None);
    }

    #[test]
    fn expiry_restarts_window() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)));
        g.submit(ann(1), SimTime::ZERO);
        g.submit(ann(2), SimTime::from_secs(10));
        g.expire(pfx(), SimTime::from_secs(30)).unwrap();
        // Window restarted at expiry: an announcement at t=40 defers again.
        match g.submit(ann(3), SimTime::from_secs(40)) {
            MraiVerdict::Deferred { at, .. } => assert_eq!(at, SimTime::from_secs(60)),
            other => panic!("expected deferral, got {other:?}"),
        }
    }

    #[test]
    fn prefixes_are_independent() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)));
        let other: Prefix = "10.0.1.0/24".parse().unwrap();
        g.submit(ann(1), SimTime::ZERO);
        let v = g.submit(
            BgpUpdate::announce(other, AsPath::empty(), None),
            SimTime::from_secs(1),
        );
        assert!(
            matches!(v, MraiVerdict::SendNow(_)),
            "different prefix must not be gated"
        );
    }

    #[test]
    fn expire_without_pending_is_noop() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)));
        assert_eq!(g.expire(pfx(), SimTime::from_secs(5)), None);
    }
}
