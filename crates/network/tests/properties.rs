//! Property tests for the network layer: decomposition preserves every
//! output function, partitioning covers every gate exactly once, and cone
//! expressions match the network they abstract.

use asyncmap_cube::{Bits, Cover, VarTable};
use asyncmap_network::{async_tech_decomp, partition, sync_tech_decomp, EquationSet, NodeKind};
use asyncmap_oracle::gen::{arb_cube, NVARS};
use proptest::prelude::*;

prop_compose! {
    fn arb_equations()(covers in prop::collection::vec(
        prop::collection::vec(arb_cube(), 1..6), 1..3)) -> Option<EquationSet> {
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let mut eqs = Vec::new();
        for (i, cubes) in covers.into_iter().enumerate() {
            let cover = Cover::from_cubes(NVARS, cubes);
            if cover.is_tautology() {
                return None;
            }
            eqs.push((format!("f{i}"), cover));
        }
        Some(EquationSet::new(vars, eqs))
    }
}

fn assignment(m: usize) -> Bits {
    let mut b = Bits::new(NVARS);
    for v in 0..NVARS {
        b.set(v, (m >> v) & 1 == 1);
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decompositions_preserve_every_output(eqs in arb_equations()) {
        let Some(eqs) = eqs else { return Ok(()) };
        let async_net = async_tech_decomp(&eqs);
        let sync_net = sync_tech_decomp(&eqs);
        for m in 0..(1usize << NVARS) {
            let bits = assignment(m);
            for (name, cover) in &eqs.equations {
                let want = cover.eval(&bits);
                prop_assert_eq!(async_net.eval_output(name, &bits), want);
                prop_assert_eq!(sync_net.eval_output(name, &bits), want);
            }
        }
        // Simplification never grows the network.
        prop_assert!(sync_net.num_gates() <= async_net.num_gates());
    }

    #[test]
    fn partition_covers_every_gate_once(eqs in arb_equations()) {
        let Some(eqs) = eqs else { return Ok(()) };
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let mut seen: Vec<_> = cones.iter().flat_map(|c| c.gates.clone()).collect();
        seen.sort();
        let dedup_len = {
            let mut s = seen.clone();
            s.dedup();
            s.len()
        };
        prop_assert_eq!(seen.len(), dedup_len, "a gate appears in two cones");
        prop_assert_eq!(seen.len(), net.num_gates());
        // Every output signal roots a cone — except a single-positive-
        // literal equation, whose output is the bare input wire itself.
        for (_, s) in net.outputs() {
            if matches!(net.node(*s), NodeKind::Input) {
                continue;
            }
            prop_assert!(cones.iter().any(|c| c.root == *s));
        }
    }

    #[test]
    fn cone_expressions_match_network(eqs in arb_equations()) {
        let Some(eqs) = eqs else { return Ok(()) };
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        for m in 0..(1usize << NVARS) {
            let bits = assignment(m);
            let values = net.eval(&bits);
            for cone in &cones {
                let expr = cone.to_expr(&net);
                let mut local = Bits::new(cone.leaves.len());
                for (i, leaf) in cone.leaves.iter().enumerate() {
                    local.set(i, values[leaf.index()]);
                }
                prop_assert_eq!(expr.eval(&local), values[cone.root.index()]);
            }
        }
    }

    #[test]
    fn cone_leaves_are_inputs_or_other_roots(eqs in arb_equations()) {
        let Some(eqs) = eqs else { return Ok(()) };
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let roots: Vec<_> = cones.iter().map(|c| c.root).collect();
        for cone in &cones {
            for leaf in &cone.leaves {
                let is_input = matches!(net.node(*leaf), NodeKind::Input);
                prop_assert!(is_input || roots.contains(leaf));
            }
        }
    }
}
