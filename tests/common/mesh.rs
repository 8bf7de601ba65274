//! A deterministic in-process gossip mesh for the convergence tests.
//!
//! [`Mesh`] wires [`GossipNode`]s into an arbitrary undirected topology
//! and runs *synchronous rounds*: each round snapshots every node's
//! envelope, then delivers each snapshot along every edge in both
//! directions. No sockets, no clocks, no sleeps — the same inputs always
//! produce the same verdicts, which is what lets the convergence property
//! test make an exact O(diameter) claim: a head crosses one edge per
//! round, so two conflicting views meet within `dist(a, b)` rounds and
//! the resulting evidence floods back out within `diameter` more.

use distrust::gossip::{GossipEnvelope, GossipNode};

/// A set of gossip nodes joined by undirected edges, stepped in
/// deterministic synchronous rounds.
pub struct Mesh {
    nodes: Vec<GossipNode>,
    edges: Vec<(usize, usize)>,
}

impl Mesh {
    /// A mesh over `nodes` connected by the undirected `edges`
    /// (self-loops and duplicate edges are tolerated and harmless).
    pub fn new(nodes: Vec<GossipNode>, edges: Vec<(usize, usize)>) -> Self {
        Self { nodes, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the mesh has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to a node.
    pub fn node(&self, i: usize) -> &GossipNode {
        &self.nodes[i]
    }

    /// Mutable access to a node (used to inject direct observations).
    pub fn node_mut(&mut self, i: usize) -> &mut GossipNode {
        &mut self.nodes[i]
    }

    /// Runs one synchronous gossip round: snapshot every node's
    /// envelope, then deliver each snapshot along every edge in both
    /// directions. Snapshot-then-deliver means information moves at most
    /// one hop per round — the property the convergence bound counts on.
    pub fn round(&mut self) {
        let snapshots: Vec<GossipEnvelope> = self.nodes.iter().map(|n| n.envelope()).collect();
        for &(a, b) in &self.edges {
            if a == b {
                continue;
            }
            let env_a = snapshots[a].clone();
            let env_b = snapshots[b].clone();
            self.nodes[b].ingest(&env_a);
            self.nodes[a].ingest(&env_b);
        }
    }

    /// Runs rounds until every node convicts `domain` or `max_rounds`
    /// is exhausted; returns the number of rounds run if converged.
    pub fn converge_on(&mut self, domain: u32, max_rounds: usize) -> Option<usize> {
        for r in 0..=max_rounds {
            if self.nodes.iter().all(|n| n.convicted(domain)) {
                return Some(r);
            }
            if r == max_rounds {
                break;
            }
            self.round();
        }
        None
    }
}
