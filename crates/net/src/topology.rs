//! A two-tier (ToR + spine) datacenter topology of shared links.
//!
//! Rack-local traffic crosses only its ToR; cross-rack traffic also
//! climbs the rack's uplink to the spine and descends the destination
//! rack's downlink. Oversubscription is explicit: each rack's uplink has
//! its own (typically smaller) capacity, and every flow through it shares
//! the same [`SharedLink`] resource.

use crate::link::{shared_link, LinkConfig, SharedLink};
use thymesim_sim::Dur;

/// Topology parameters.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct TreeConfig {
    pub racks: usize,
    /// ToR port links (node ↔ ToR).
    pub edge: LinkConfig,
    /// Rack uplinks (ToR ↔ spine); make these slower than
    /// `edge × nodes-per-rack` to model oversubscription.
    pub uplink: LinkConfig,
    /// Cut-through forwarding latency per switch hop.
    pub hop_latency: Dur,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            racks: 4,
            edge: LinkConfig::copper_100g(),
            uplink: LinkConfig::copper_100g(),
            hop_latency: Dur::ns(300),
        }
    }
}

/// A route: ordered shared hops plus per-hop latency.
#[derive(Clone)]
pub struct Route {
    pub hops: Vec<SharedLink>,
    pub hop_latency: Dur,
}

impl Route {
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }
}

/// The instantiated tree: per-rack ToR fabrics and up/down spine links.
///
/// Every segment is directional (a request path and a response path never
/// share a queue — switch ports are full duplex), so a flow's own
/// responses cannot head-of-line-block its requests.
pub struct TreeTopology {
    cfg: TreeConfig,
    /// Intra-rack ToR traversal, borrower→lender direction, per rack.
    tor_fwd: Vec<SharedLink>,
    /// Intra-rack ToR traversal, lender→borrower direction, per rack.
    tor_rev: Vec<SharedLink>,
    /// Per-rack uplink (toward the spine) and downlink (from the spine).
    up: Vec<SharedLink>,
    down: Vec<SharedLink>,
}

impl TreeTopology {
    pub fn new(cfg: TreeConfig) -> TreeTopology {
        assert!(cfg.racks >= 1);
        TreeTopology {
            tor_fwd: (0..cfg.racks).map(|_| shared_link(cfg.edge)).collect(),
            tor_rev: (0..cfg.racks).map(|_| shared_link(cfg.edge)).collect(),
            up: (0..cfg.racks).map(|_| shared_link(cfg.uplink)).collect(),
            down: (0..cfg.racks).map(|_| shared_link(cfg.uplink)).collect(),
            cfg,
        }
    }

    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// The shared hops a *request* takes from a node in `src_rack` to a
    /// node in `dst_rack` (excluding the sender's own access link).
    pub fn route(&self, src_rack: usize, dst_rack: usize) -> Route {
        assert!(src_rack < self.cfg.racks && dst_rack < self.cfg.racks);
        let hops = if src_rack == dst_rack {
            // One ToR traversal.
            vec![SharedLink::clone(&self.tor_fwd[src_rack])]
        } else {
            vec![
                SharedLink::clone(&self.up[src_rack]),
                SharedLink::clone(&self.down[dst_rack]),
            ]
        };
        Route {
            hops,
            hop_latency: self.cfg.hop_latency,
        }
    }

    /// Both directions of a borrower(`src_rack`) ↔ lender(`dst_rack`)
    /// flow: `(request route, response route)`, guaranteed to use
    /// direction-distinct resources.
    pub fn route_pair(&self, src_rack: usize, dst_rack: usize) -> (Route, Route) {
        let fwd = self.route(src_rack, dst_rack);
        let rev = if src_rack == dst_rack {
            Route {
                hops: vec![SharedLink::clone(&self.tor_rev[src_rack])],
                hop_latency: self.cfg.hop_latency,
            }
        } else {
            self.route(dst_rack, src_rack)
        };
        (fwd, rev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesim_sim::Time;

    #[test]
    fn intra_rack_is_one_hop_cross_rack_two() {
        let t = TreeTopology::new(TreeConfig::default());
        assert_eq!(t.route(1, 1).hop_count(), 1);
        assert_eq!(t.route(0, 3).hop_count(), 2);
    }

    #[test]
    fn cross_rack_flows_share_the_uplink() {
        let t = TreeTopology::new(TreeConfig::default());
        let r1 = t.route(0, 1);
        let r2 = t.route(0, 2);
        // Both flows leave rack 0: same uplink object.
        let big = 1_000_000u64;
        let a = r1.hops[0].borrow_mut().send(Time::ZERO, big);
        let b = r2.hops[0].borrow_mut().send(Time::ZERO, big);
        assert!(b > a, "second flow must queue on the shared uplink");
        assert_eq!(t.up[0].borrow().bytes_sent, 2 * big);
    }

    #[test]
    fn different_racks_do_not_interfere() {
        let t = TreeTopology::new(TreeConfig::default());
        let r1 = t.route(0, 1);
        let r2 = t.route(2, 3);
        let big = 1_000_000u64;
        let a = r1.hops[0].borrow_mut().send(Time::ZERO, big);
        let b = r2.hops[0].borrow_mut().send(Time::ZERO, big);
        assert_eq!(a, b, "distinct racks have distinct uplinks");
    }

    #[test]
    fn intra_rack_traffic_avoids_the_spine() {
        let t = TreeTopology::new(TreeConfig::default());
        let r = t.route(1, 1);
        r.hops[0].borrow_mut().send(Time::ZERO, 4096);
        assert_eq!(t.up[1].borrow().bytes_sent, 0);
    }

    #[test]
    fn route_pair_directions_are_distinct_resources() {
        let t = TreeTopology::new(TreeConfig::default());
        // Intra-rack: forward and reverse must not share a queue.
        let (fwd, rev) = t.route_pair(0, 0);
        let a = fwd.hops[0].borrow_mut().send(Time::ZERO, 1_000_000);
        let b = rev.hops[0].borrow_mut().send(Time::ZERO, 1_000_000);
        assert_eq!(a, b, "directions must not queue on each other");
        // Cross-rack: same property.
        let (fwd, rev) = t.route_pair(0, 1);
        let a = fwd.hops[0].borrow_mut().send(Time::ZERO, 1_000_000);
        let b = rev.hops[0].borrow_mut().send(Time::ZERO, 1_000_000);
        assert_eq!(a, b);
    }
}
