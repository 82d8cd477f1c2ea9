//! Property suites for the revised-simplex master (differential against
//! the dense tableau).
//!
//! Two layers:
//!
//! * **Raw LPs** — [`solve_lp_with_duals_revised`] against
//!   [`solve_lp_with_duals`] on random small LPs: same feasibility
//!   verdict, same objective, and the revised duals must independently
//!   certify optimality (primal feasibility + strong duality + dual
//!   feasibility), so agreement can never be two engines sharing a bug.
//! * **Column generation** — both master engines of
//!   [`solve_column_generation`] on random set-partitioning instances,
//!   against each other and against the whole pool solved outright
//!   ([`SetPartitionProblem::solve_presolved`]): same feasibility verdict,
//!   same optimal cost, and every returned selection is an exact cover.
//!   Pricing trajectories legitimately differ (dual degeneracy), so the
//!   invariant is the optimum, not the pool. The ground truth catches what
//!   two engines agreeing cannot: a loop step both share (such as the
//!   restricted IP's reduced-cost filter) cutting the optimum away.

use gecco_solver::{
    solve_column_generation, solve_lp_with_duals, solve_lp_with_duals_revised, ColGenOptions,
    EnumeratedColumnSource, LpDualResult, MasterEngine, Model, PresolveOptions, Sense,
    SetPartitionProblem, SolveEngine,
};
use proptest::prelude::*;

/// One random constraint: coefficient grid index per variable, sense
/// selector, right-hand side.
type RowSpec = (Vec<usize>, usize, f64);

/// A random LP: per-constraint `(coefficient grid index per var, sense,
/// rhs)`. Costs are strictly positive and variables nonnegative, so no
/// generated LP is unbounded — both engines must answer Optimal or
/// Infeasible, never Unbounded.
fn lp_spec() -> impl Strategy<Value = (Vec<f64>, Vec<RowSpec>)> {
    (2usize..6, 1usize..5).prop_flat_map(|(n, m)| {
        let costs = proptest::collection::vec(1usize..10, n)
            .prop_map(|c| c.into_iter().map(|v| v as f64 * 0.5).collect::<Vec<f64>>());
        let row = (proptest::collection::vec(0usize..5, n), 0usize..3, 0usize..4)
            .prop_map(|(coeffs, sense, rhs)| (coeffs, sense, rhs as f64));
        (costs, proptest::collection::vec(row, m))
    })
}

fn build_lp(costs: &[f64], rows: &[(Vec<usize>, usize, f64)]) -> Model {
    // Coefficient grid: index 0 is absent, the rest are 0.5 … 2.0.
    const GRID: [f64; 5] = [0.0, 0.5, 1.0, 1.5, 2.0];
    let mut model = Model::new();
    let vars: Vec<usize> = costs.iter().map(|&c| model.add_var(c)).collect();
    for (coeffs, sense, rhs) in rows {
        let mut terms: Vec<(usize, f64)> = coeffs
            .iter()
            .zip(&vars)
            .filter(|(&g, _)| g != 0)
            .map(|(&g, &v)| (v, GRID[g]))
            .collect();
        if terms.is_empty() {
            // An empty row is vacuous (Le/Ge at rhs ≥ 0) or plainly
            // infeasible (Eq at rhs > 0) in ways the engines need not
            // agree on; anchor it on the first variable instead.
            terms.push((vars[0], 1.0));
        }
        let sense = [Sense::Le, Sense::Ge, Sense::Eq][*sense];
        model.add_constraint(terms, sense, *rhs);
    }
    model
}

/// A random set-partitioning instance: universe size, pool of
/// `(members, cost)`, warm-start prefix length, optional cardinality
/// bounds.
#[allow(clippy::type_complexity)]
fn setpart_spec(
) -> impl Strategy<Value = (usize, Vec<(Vec<usize>, f64)>, usize, Option<usize>, Option<usize>)> {
    (2usize..7).prop_flat_map(|n| {
        let column = (proptest::collection::btree_set(0usize..n, 1..=n), 1usize..40).prop_map(
            |(members, c)| (members.into_iter().collect::<Vec<usize>>(), c as f64 * 0.25),
        );
        let pool = proptest::collection::vec(column, 1..12);
        (Just(n), pool, 0usize..4, proptest::option::of(1usize..4), proptest::option::of(1usize..5))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn revised_lp_matches_dense_on_random_lps(spec in lp_spec()) {
        let (costs, rows) = spec;
        let model = build_lp(&costs, &rows);
        let dense = solve_lp_with_duals(&model);
        let revised = solve_lp_with_duals_revised(&model);
        match (&dense, &revised) {
            (
                LpDualResult::Optimal { solution: ds, .. },
                LpDualResult::Optimal { solution: rs, duals },
            ) => {
                prop_assert!(
                    (ds.objective - rs.objective).abs() < 1e-6,
                    "objectives differ: dense {} vs revised {}",
                    ds.objective,
                    rs.objective
                );
                prop_assert!(model.is_feasible(&rs.values, 1e-6), "revised primal infeasible");
                // Strong duality: yᵀb equals the optimum.
                let yb: f64 = model.constraints().iter().zip(duals).map(|(c, y)| c.rhs * y).sum();
                prop_assert!((yb - rs.objective).abs() < 1e-6, "strong duality: {} vs {}", yb, rs.objective);
                // Dual feasibility: no column prices negative.
                for j in 0..model.num_vars() {
                    let mut reduced = model.costs()[j];
                    for (con, y) in model.constraints().iter().zip(duals) {
                        for &(v, coeff) in &con.terms {
                            if v == j {
                                reduced -= y * coeff;
                            }
                        }
                    }
                    prop_assert!(reduced > -1e-6, "column {} prices negative: {}", j, reduced);
                }
            }
            (LpDualResult::Infeasible, LpDualResult::Infeasible) => {}
            other => prop_assert!(false, "engines disagree: {:?}", other),
        }
    }

    #[test]
    fn colgen_routes_agree_on_random_instances(spec in setpart_spec()) {
        let (n, pool, warm, min_sets, max_sets) = spec;
        let warm_cols: Vec<(Vec<usize>, f64)> = pool[..warm.min(pool.len())].to_vec();
        let mut whole = SetPartitionProblem::new(n);
        whole.min_sets = min_sets;
        whole.max_sets = max_sets;
        for (members, cost) in &pool {
            whole.add_set(members.clone(), *cost);
        }
        let truth = whole.solve_presolved(SolveEngine::default(), &PresolveOptions::default());
        let mut outcomes: Vec<(String, Option<(f64, bool)>)> = Vec::new();
        for master in [MasterEngine::Revised, MasterEngine::Dense] {
            let options = ColGenOptions { master, ..ColGenOptions::default() };
            let mut source = EnumeratedColumnSource::new(pool.clone());
            let s = solve_column_generation(
                n,
                (min_sets, max_sets),
                &warm_cols,
                &mut source,
                &options,
            );
            let label = format!("{master:?}");
            if let Some(s) = &s {
                prop_assert!(s.proven_optimal, "{}: budget cannot run out here: {:?}", label, s);
                // Exact cover within the declared bounds.
                let mut covered = vec![0usize; n];
                for (members, _) in &s.columns {
                    for &e in members {
                        covered[e] += 1;
                    }
                }
                prop_assert!(covered.iter().all(|&c| c == 1), "{}: not a cover: {:?}", label, s);
                prop_assert!(min_sets.is_none_or(|min| s.columns.len() >= min), "{}: {:?}", label, s);
                prop_assert!(max_sets.is_none_or(|max| s.columns.len() <= max), "{}: {:?}", label, s);
            }
            match (&s, &truth) {
                (None, None) => {}
                (Some(s), Some(t)) => prop_assert!(
                    (s.cost - t.cost).abs() < 1e-9,
                    "{} cost {} vs whole-pool optimum {}",
                    label, s.cost, t.cost
                ),
                _ => prop_assert!(
                    false,
                    "{}: feasibility differs from the whole pool's: {:?} vs {:?}",
                    label, s, truth
                ),
            }
            outcomes.push((label, s.map(|s| (s.cost, s.proven_optimal))));
        }
        for pair in outcomes.windows(2) {
            match (&pair[0].1, &pair[1].1) {
                (None, None) => {}
                (Some((a, _)), Some((b, _))) => prop_assert!(
                    (a - b).abs() < 1e-9,
                    "{} cost {} vs {} cost {}",
                    pair[0].0, a, pair[1].0, b
                ),
                _ => prop_assert!(false, "feasibility verdicts differ: {:?}", outcomes),
            }
        }
    }
}
