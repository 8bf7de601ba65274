//! Convergence property of the gossip mesh: over ANY connected topology
//! of honest auditors, an equivocating domain whose conflicting views
//! land anywhere in the mesh is detected by EVERY auditor within
//! O(diameter) synchronous rounds, and the conviction travels as
//! transferable evidence each auditor can re-verify alone.
//!
//! Everything here is deterministic — the mesh steps in synchronous
//! snapshot-then-deliver rounds (information moves at most one hop per
//! round), no sockets, no clocks, no sleeps — so the bound is exact:
//! the two conflicting views meet within `dist(a, b) <= diameter`
//! rounds, and the resulting evidence floods back out within `diameter`
//! more. `2 * diameter + 2` rounds therefore always suffice.

mod common;

use common::mesh::Mesh;
use distrust::crypto::schnorr::SigningKey;
use distrust::gossip::GossipNode;
use distrust::log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
use proptest::prelude::*;

fn checkpoint(sk: &SigningKey, domain: u32, size: u64, fill: u8) -> SignedCheckpoint {
    SignedCheckpoint::sign(
        CheckpointBody {
            log_id: log_id(b"mesh-property", domain),
            size,
            head: [fill; 32],
            logical_time: size,
        },
        sk,
    )
}

/// A random connected topology over `k` nodes: a random spanning tree
/// (node `i` attaches to an earlier node chosen by `seeds`), plus up to
/// `extra` additional random edges. Connected by construction.
fn random_connected_edges(k: usize, seeds: &[u64]) -> Vec<(usize, usize)> {
    let seed_at = |i: usize| seeds.get(i % seeds.len().max(1)).copied().unwrap_or(1);
    let mut edges: Vec<(usize, usize)> = (1..k).map(|i| (i, (seed_at(i) as usize) % i)).collect();
    // Extra edges make the graph denser (shrinking the diameter); the
    // bound must hold for any of them.
    for (j, &s) in seeds.iter().enumerate() {
        let a = (s as usize) % k;
        let b = (s >> 32) as usize % k;
        if a != b && j % 2 == 0 {
            edges.push((a, b));
        }
    }
    edges
}

/// Exact graph diameter by BFS from every node (k is small).
fn diameter(k: usize, edges: &[(usize, usize)]) -> usize {
    let mut adj = vec![Vec::new(); k];
    for &(a, b) in edges {
        if a != b {
            adj[a].push(b);
            adj[b].push(a);
        }
    }
    let mut diameter = 0;
    for start in 0..k {
        let mut dist = vec![usize::MAX; k];
        dist[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        let far = *dist.iter().max().expect("non-empty");
        assert_ne!(far, usize::MAX, "topology must be connected");
        diameter = diameter.max(far);
    }
    diameter
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: any connected topology, any pair of
    /// injection points for the two conflicting views, every honest
    /// auditor convicts the equivocating domain within
    /// `2 * diameter + 2` rounds — and holds independently verifiable
    /// evidence, while an honest domain in the same mesh is never
    /// convicted by anyone.
    #[test]
    fn every_auditor_convicts_within_o_diameter_rounds(
        k in 2usize..9,
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        inject_a in any::<u64>(),
        inject_b in any::<u64>(),
    ) {
        let equivocator = SigningKey::derive(b"mesh-property", b"equivocator");
        let honest = SigningKey::derive(b"mesh-property", b"honest");
        let keys = vec![equivocator.verifying_key(), honest.verifying_key()];

        let edges = random_connected_edges(k, &seeds);
        let d = diameter(k, &edges);
        let nodes = (0..k).map(|_| GossipNode::new(keys.clone())).collect();
        let mut mesh = Mesh::new(nodes, edges);

        // Domain 0 shows fork A to one auditor and fork B to another
        // (possibly the same one — then detection is immediate and the
        // bound holds trivially). Domain 1 behaves: the same history,
        // observed at different staleness, is consistent everywhere.
        let a = (inject_a as usize) % k;
        let b = (inject_b as usize) % k;
        mesh.node_mut(a).observe_checkpoint(0, checkpoint(&equivocator, 0, 6, 0xaa));
        mesh.node_mut(b).observe_checkpoint(0, checkpoint(&equivocator, 0, 6, 0xbb));
        mesh.node_mut(a).observe_checkpoint(1, checkpoint(&honest, 1, 3, 0x33));
        mesh.node_mut(b).observe_checkpoint(1, checkpoint(&honest, 1, 5, 0x55));

        let budget = 2 * d + 2;
        let rounds = mesh.converge_on(0, budget);
        prop_assert!(
            rounds.is_some(),
            "k={} diameter={} did not converge within {} rounds", k, d, budget
        );

        for i in 0..mesh.len() {
            // Every auditor holds the conviction as TRANSFERABLE
            // evidence: it verifies against the domain's public key
            // alone, so auditor i can convince anyone else.
            let transferable = mesh
                .node(i)
                .evidence()
                .iter()
                .any(|bundle| bundle.domain == 0 && bundle.verify(&keys[0]));
            prop_assert!(transferable, "node {} lacks transferable evidence", i);
            // No auditor ever convicts the honest domain.
            prop_assert!(!mesh.node(i).convicted(1), "node {} framed domain 1", i);
        }
    }

    /// Liveness of the head flood itself: with no equivocation anywhere,
    /// a single directly-observed head reaches every auditor within
    /// `diameter` rounds and convicts nobody.
    #[test]
    fn honest_heads_flood_within_diameter_rounds(
        k in 2usize..9,
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        origin in any::<u64>(),
    ) {
        let honest = SigningKey::derive(b"mesh-property", b"honest");
        let keys = vec![honest.verifying_key()];
        let edges = random_connected_edges(k, &seeds);
        let d = diameter(k, &edges);
        let nodes = (0..k).map(|_| GossipNode::new(keys.clone())).collect();
        let mut mesh = Mesh::new(nodes, edges);

        let origin = (origin as usize) % k;
        mesh.node_mut(origin).observe_checkpoint(0, checkpoint(&honest, 0, 8, 0x88));
        for _ in 0..d {
            mesh.round();
        }
        for i in 0..mesh.len() {
            let heads = mesh.node(i).envelope().heads;
            prop_assert_eq!(heads.len(), 1);
            prop_assert_eq!(heads[0].checkpoint.body.size, 8);
            prop_assert!(!mesh.node(i).convicted(0));
        }
    }
}

#[test]
fn split_view_meets_in_the_middle_of_a_path() {
    // Path topology 0—1—2—3—4; node 0 sees fork A, node 4 sees fork
    // B of domain 0. Distance between the views is 4, evidence needs
    // at most the diameter (4) more to flood back out.
    let sk = SigningKey::derive(b"mesh", b"equivocator");
    let keys = vec![sk.verifying_key()];
    let nodes = (0..5).map(|_| GossipNode::new(keys.clone())).collect();
    let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
    let mut mesh = Mesh::new(nodes, edges);
    mesh.node_mut(0)
        .observe_checkpoint(0, checkpoint(&sk, 0, 7, 0xaa));
    mesh.node_mut(4)
        .observe_checkpoint(0, checkpoint(&sk, 0, 7, 0xbb));

    let rounds = mesh
        .converge_on(0, 2 * 4 + 2)
        .expect("all nodes must convict within 2*diameter+2 rounds");
    assert!(rounds <= 8, "path of 5 converged in {rounds} rounds");
    for i in 0..mesh.len() {
        assert!(mesh.node(i).convicted(0));
        // The conviction is transferable: every node's evidence
        // verifies against the domain's key alone.
        assert!(mesh.node(i).evidence().iter().any(|b| b.verify(&keys[0])));
    }
}

#[test]
fn honest_views_never_convict() {
    let sk = SigningKey::derive(b"mesh", b"honest");
    let keys = vec![sk.verifying_key()];
    let nodes = (0..3).map(|_| GossipNode::new(keys.clone())).collect();
    let mut mesh = Mesh::new(nodes, vec![(0, 1), (1, 2)]);
    // Same history, different staleness — lagging is consistent.
    mesh.node_mut(0)
        .observe_checkpoint(0, checkpoint(&sk, 0, 3, 0x33));
    mesh.node_mut(2)
        .observe_checkpoint(0, checkpoint(&sk, 0, 3, 0x33));
    for _ in 0..6 {
        mesh.round();
    }
    for i in 0..mesh.len() {
        assert!(!mesh.node(i).convicted(0));
        assert!(mesh.node(i).evidence().is_empty());
    }
}

#[test]
fn second_hand_heads_propagate() {
    // Node 0 observes directly; nodes 1 and 2 learn the head only
    // via gossip, and node 2 only via node 1's re-gossip.
    let sk = SigningKey::derive(b"mesh", b"relay");
    let keys = vec![sk.verifying_key()];
    let nodes = (0..3).map(|_| GossipNode::new(keys.clone())).collect();
    let mut mesh = Mesh::new(nodes, vec![(0, 1), (1, 2)]);
    mesh.node_mut(0)
        .observe_checkpoint(0, checkpoint(&sk, 0, 9, 0x99));
    mesh.round();
    mesh.round();
    let head = mesh.node(2).envelope().heads;
    assert_eq!(head.len(), 1);
    assert_eq!(head[0].checkpoint.body.size, 9);
}
