//! The stage graph and its cycle-by-cycle evaluator.

use crate::beat::Beat;
use crate::stage::{Stage, MAX_PORTS, NO_FLAGS, NO_OFFERS};

/// Handle to a stage registered in a [`StreamSim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StageId(pub usize);

/// A directed wire between two stage ports. The port indices are implied by
/// the `in_edge`/`out_edge` tables; the endpoints are kept for topology
/// computation and diagnostics.
#[derive(Clone, Copy, Debug)]
struct Edge {
    from: StageId,
    to: StageId,
}

/// Per-edge protocol-checker state: remembers last cycle's signals to
/// enforce the AXI4-Stream stability rules.
#[derive(Clone, Copy, Debug, Default)]
struct EdgeState {
    offer: Option<Beat>,
    ready: bool,
    /// Offer that was valid but not accepted last cycle (must persist).
    held: Option<Beat>,
}

/// AXI4-Stream protocol violations detected by the per-edge checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// VALID was deasserted before the handshake completed.
    ValidRetracted { cycle: u64, edge: usize },
    /// TDATA/TDEST/TLAST changed while VALID was high and READY low.
    BeatMutated { cycle: u64, edge: usize },
}

/// A cycle-accurate simulator for an acyclic graph of [`Stage`]s.
///
/// Evaluation per cycle:
/// 1. forward pass in topological order computing every edge's offer;
/// 2. backward pass in reverse topological order computing every edge's
///    READY;
/// 3. protocol check per edge;
/// 4. clock edge: each stage learns which of its port handshakes fired.
pub struct StreamSim {
    stages: Vec<Box<dyn Stage>>,
    edges: Vec<Edge>,
    edge_state: Vec<EdgeState>,
    /// edge index feeding (stage, in_port), if connected
    in_edge: Vec<[Option<usize>; MAX_PORTS]>,
    /// edge index driven by (stage, out_port), if connected
    out_edge: Vec<[Option<usize>; MAX_PORTS]>,
    topo: Vec<usize>,
    cycle: u64,
    violations: Vec<Violation>,
    /// Panic on protocol violation instead of recording (default true).
    pub strict: bool,
}

impl Default for StreamSim {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamSim {
    pub fn new() -> StreamSim {
        StreamSim {
            stages: Vec::new(),
            edges: Vec::new(),
            edge_state: Vec::new(),
            in_edge: Vec::new(),
            out_edge: Vec::new(),
            topo: Vec::new(),
            cycle: 0,
            violations: Vec::new(),
            strict: true,
        }
    }

    pub fn add<S: Stage + 'static>(&mut self, stage: S) -> StageId {
        let (i, o) = stage.ports();
        assert!(i <= MAX_PORTS && o <= MAX_PORTS, "too many ports");
        self.stages.push(Box::new(stage));
        self.in_edge.push([None; MAX_PORTS]);
        self.out_edge.push([None; MAX_PORTS]);
        self.topo.clear(); // invalidate
        StageId(self.stages.len() - 1)
    }

    /// Connect `from`'s output port to `to`'s input port.
    pub fn connect(&mut self, from: StageId, from_port: usize, to: StageId, to_port: usize) {
        let (_, n_out) = self.stages[from.0].ports();
        let (n_in, _) = self.stages[to.0].ports();
        assert!(from_port < n_out, "output port {from_port} out of range");
        assert!(to_port < n_in, "input port {to_port} out of range");
        assert!(
            self.out_edge[from.0][from_port].is_none(),
            "output port already connected"
        );
        assert!(
            self.in_edge[to.0][to_port].is_none(),
            "input port already connected"
        );
        let idx = self.edges.len();
        self.edges.push(Edge { from, to });
        self.edge_state.push(EdgeState::default());
        self.out_edge[from.0][from_port] = Some(idx);
        self.in_edge[to.0][to_port] = Some(idx);
        self.topo.clear();
    }

    /// Kahn topological sort over stages; panics on a combinational loop.
    fn ensure_topo(&mut self) {
        if !self.topo.is_empty() || self.stages.is_empty() {
            return;
        }
        let n = self.stages.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to.0] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(s) = ready.pop() {
            order.push(s);
            for e in &self.edges {
                if e.from.0 == s {
                    indeg[e.to.0] -= 1;
                    if indeg[e.to.0] == 0 {
                        ready.push(e.to.0);
                    }
                }
            }
        }
        assert_eq!(
            order.len(),
            n,
            "stage graph has a cycle; AXI stream graphs must be DAGs"
        );
        self.topo = order;
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Downcast helper for inspecting concrete stages after a run.
    pub fn stage_ref(&self, id: StageId) -> &dyn Stage {
        self.stages[id.0].as_ref()
    }

    /// Advance one clock cycle.
    pub fn tick(&mut self) {
        self.ensure_topo();
        let cycle = self.cycle;
        let n_edges = self.edges.len();
        let mut offers: Vec<Option<Beat>> = vec![None; n_edges];
        let mut readys: Vec<bool> = vec![false; n_edges];

        // Forward pass: offers in topological order.
        for idx in 0..self.topo.len() {
            let s = self.topo[idx];
            let mut ins = NO_OFFERS;
            for (p, slot) in self.in_edge[s].iter().enumerate() {
                if let Some(e) = slot {
                    ins[p] = offers[*e];
                }
            }
            let outs = self.stages[s].offer(cycle, &ins);
            for (p, slot) in self.out_edge[s].iter().enumerate() {
                if let Some(e) = slot {
                    offers[*e] = outs[p];
                }
            }
        }

        // Backward pass: readies in reverse topological order.
        for idx in (0..self.topo.len()).rev() {
            let s = self.topo[idx];
            let mut ins = NO_OFFERS;
            for (p, slot) in self.in_edge[s].iter().enumerate() {
                if let Some(e) = slot {
                    ins[p] = offers[*e];
                }
            }
            let mut outr = NO_FLAGS;
            for (p, slot) in self.out_edge[s].iter().enumerate() {
                if let Some(e) = slot {
                    outr[p] = readys[*e];
                }
            }
            let inr = self.stages[s].ready(cycle, &ins, &outr);
            for (p, slot) in self.in_edge[s].iter().enumerate() {
                if let Some(e) = slot {
                    readys[*e] = inr[p];
                }
            }
        }

        // Protocol check + record this cycle's signals.
        for e in 0..n_edges {
            let st = &mut self.edge_state[e];
            if let Some(held) = st.held {
                match offers[e] {
                    None => {
                        let v = Violation::ValidRetracted { cycle, edge: e };
                        if self.strict {
                            panic!("AXI protocol violation: {v:?}");
                        }
                        self.violations.push(v);
                    }
                    Some(b) if b != held => {
                        let v = Violation::BeatMutated { cycle, edge: e };
                        if self.strict {
                            panic!("AXI protocol violation: {v:?}");
                        }
                        self.violations.push(v);
                    }
                    Some(_) => {}
                }
            }
            st.offer = offers[e];
            st.ready = readys[e];
            st.held = match (offers[e], readys[e]) {
                (Some(b), false) => Some(b), // valid, not accepted: must persist
                _ => None,
            };
        }

        // Clock edge: deliver fired handshakes.
        for s in 0..self.stages.len() {
            let mut ins = NO_OFFERS;
            let mut fired_in = NO_OFFERS;
            let mut fired_out = NO_FLAGS;
            for (p, slot) in self.in_edge[s].iter().enumerate() {
                if let Some(e) = slot {
                    ins[p] = offers[*e];
                    if readys[*e] {
                        if let Some(b) = offers[*e] {
                            fired_in[p] = Some(b);
                        }
                    }
                }
            }
            for (p, slot) in self.out_edge[s].iter().enumerate() {
                if let Some(e) = slot {
                    if readys[*e] && offers[*e].is_some() {
                        fired_out[p] = true;
                    }
                }
            }
            // Every stage is clocked every cycle: stages may carry timers
            // or counters that advance regardless of traffic.
            self.stages[s].clock(cycle, &ins, &fired_in, &fired_out);
        }

        self.cycle += 1;
    }

    /// Run `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }
}
