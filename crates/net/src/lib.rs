//! # thymesim-net
//!
//! The network substrate: serial point-to-point links with FIFO queueing
//! ([`link`]), an output-queued switch ([`switch`]), the rack/spine tree
//! whose shared uplinks carry the beyond-rack topologies the paper
//! anticipates ([`topology`]), and a published datacenter latency
//! envelope used to classify injected delays against production
//! percentiles ([`datacenter`]).

//! ```
//! use thymesim_net::*;
//! use thymesim_sim::Time;
//!
//! // An oversubscribed rack uplink shared by two flows.
//! let up = shared_link(LinkConfig::copper_100g());
//! let a = up.borrow_mut().send(Time::ZERO, 100_000);
//! let b = up.borrow_mut().send(Time::ZERO, 100_000);
//! assert!(b > a); // the second flow queues
//! ```

pub mod datacenter;
pub mod link;
pub mod switch;
pub mod topology;

pub use datacenter::LatencyProfile;
pub use link::{shared_link, LinkConfig, SerialLink, SharedLink};
pub use switch::Switch;
pub use topology::{Route, TreeConfig, TreeTopology};
