//! Column generation for weighted set partitioning.
//!
//! GECCO's Step-2 instances stop being enumerable once richer candidate
//! sources multiply the pool, so this module solves the set-partitioning
//! MIP without ever materializing the full column set. The classic
//! restricted-master scheme:
//!
//! 1. **Restricted master LP** — the LP relaxation over the columns seen
//!    so far, kept feasible by big-M artificial columns (one per element,
//!    counted toward the minimum-cardinality row so residual `min_sets`
//!    bounds cannot strand the master). By default the master is the
//!    *incremental* sparse revised simplex of [`crate::revised`]: priced
//!    columns **append** to a live `RevisedMaster` and each round
//!    re-optimizes from the previous optimal basis (new columns enter
//!    nonbasic at zero, so that basis stays primal-feasible — a genuine
//!    warm start). The dense tableau route
//!    ([`crate::simplex::solve_lp_with_duals`]), which rebuilds the master
//!    model from scratch every round, remains selectable
//!    ([`MasterEngine::Dense`]) as the differential oracle.
//! 2. **Pricing** — a caller-supplied [`ColumnSource`] receives the duals
//!    and returns columns whose reduced cost
//!    `c_S − Σ_{e∈S} y_e − y_card` lies below a threshold. An empty reply
//!    is a *proof* that no such column exists; that contract is what makes
//!    the loop exact. Pricing always runs against the true duals of the
//!    latest master solve.
//! 3. **Restricted IP** — once the LP prices out (no column below `−ε`),
//!    the existing presolve → decompose → branch-and-bound pipeline solves
//!    the integer program over the restricted pool. Once an incumbent
//!    exists, it solves over only the pool columns pricing below the gap
//!    (step 4's argument: no other column can be part of a cheaper cover).
//! 4. **Gap closing** — for set partitioning, any exact cover `S` obeys
//!    `cost(S) ≥ z_LP + Σ_{j∈S} rc_j` (complementary slackness absorbs the
//!    cardinality rows), and after convergence every column — seen or not —
//!    has `rc ≥ 0`. So every column of a cover beating the incumbent has
//!    `rc < z_IP − z_LP`: threshold-pricing at the gap either grows the
//!    pool (and the loop repeats) or proves the incumbent optimal.
//!
//! The enumerated presolved route ([`SetPartitionProblem::solve_presolved`])
//! stays as the differential oracle: on enumerable pools both routes return
//! selections with bit-identical cost and validity (property-tested in
//! `gecco-core`).

use crate::model::{Model, Sense};
use crate::presolve::PresolveOptions;
use crate::revised::{MasterLp, RevisedMaster};
use crate::setpart::{SetPartitionProblem, SetPartitionSolution, SolveEngine};
use crate::simplex::{solve_lp_with_duals_counted, LpDualResult};
use std::collections::HashMap;

/// Dual prices handed to a [`ColumnSource`].
#[derive(Debug, Clone)]
pub struct DualPrices<'a> {
    /// `element[e]` is the dual of element `e`'s exactly-one row.
    pub element: &'a [f64],
    /// Sum of the cardinality-row duals; every set pays it once.
    pub per_set: f64,
}

impl DualPrices<'_> {
    /// Reduced cost of a column: `cost − Σ_{e∈members} y_e − per_set`.
    pub fn reduced_cost(&self, members: &[usize], cost: f64) -> f64 {
        let mut rc = cost - self.per_set;
        for &e in members {
            rc -= self.element[e];
        }
        rc
    }
}

/// One pricing request.
#[derive(Debug, Clone, Copy)]
pub struct PricingRequest {
    /// Return only columns whose reduced cost is strictly below this.
    /// `f64::INFINITY` asks for every column not yet returned (the driver
    /// falls back to it when the restricted pool cannot even form a cover).
    pub threshold: f64,
    /// Soft cap on columns per reply; the driver keeps asking while
    /// replies are non-empty, so truncating is always safe.
    pub max_columns: usize,
}

/// A lazy supplier of set-partitioning columns, driven by LP duals.
///
/// # Contract
///
/// * Each reply contains columns `(members, cost)` with reduced cost below
///   `request.threshold` under `prices`; members need not be sorted and
///   duplicates of earlier replies are tolerated (the driver dedups and
///   keeps the cheapest), but a source should avoid resending columns — the
///   driver treats a reply with no *new* columns as exhaustive.
/// * **An empty reply is a proof** that no column of the full (implicit)
///   pool prices below the threshold. Exactness of the whole loop rests on
///   this: a source that forgets columns silently turns "proven optimal"
///   into "optimal over what the source showed".
pub trait ColumnSource {
    /// Prices columns against `prices` per `request`.
    fn price(
        &mut self,
        prices: &DualPrices<'_>,
        request: &PricingRequest,
    ) -> Vec<(Vec<usize>, f64)>;
}

/// A [`ColumnSource`] over a fully materialized pool — the test/bench
/// harness and the bridge for callers that already enumerated candidates.
#[derive(Debug, Clone)]
pub struct EnumeratedColumnSource {
    columns: Vec<(Vec<usize>, f64)>,
    returned: Vec<bool>,
}

impl EnumeratedColumnSource {
    /// Wraps an explicit column pool.
    pub fn new(columns: Vec<(Vec<usize>, f64)>) -> Self {
        let returned = vec![false; columns.len()];
        EnumeratedColumnSource { columns, returned }
    }
}

impl ColumnSource for EnumeratedColumnSource {
    fn price(
        &mut self,
        prices: &DualPrices<'_>,
        request: &PricingRequest,
    ) -> Vec<(Vec<usize>, f64)> {
        let mut out = Vec::new();
        for (j, (members, cost)) in self.columns.iter().enumerate() {
            if self.returned[j] {
                continue;
            }
            if prices.reduced_cost(members, *cost) < request.threshold {
                self.returned[j] = true;
                out.push((members.clone(), *cost));
                if out.len() >= request.max_columns {
                    break;
                }
            }
        }
        out
    }
}

/// Which LP engine solves the restricted master.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MasterEngine {
    /// The incremental sparse revised simplex ([`crate::revised`]):
    /// columns append to a live master, each round re-optimizes from the
    /// previous optimal basis.
    #[default]
    Revised,
    /// The dense two-phase tableau, rebuilt from scratch every round —
    /// the differential oracle for the revised route.
    Dense,
}

/// Tuning knobs for the restricted-master loop.
#[derive(Debug, Clone)]
pub struct ColGenOptions {
    /// Engine for the restricted integer solves.
    pub engine: SolveEngine,
    /// Presolve configuration for the restricted integer solves.
    pub presolve: PresolveOptions,
    /// Node budget per restricted integer solve (0 = engine default).
    pub max_nodes: usize,
    /// Cap on pricing calls across the whole run; hitting it degrades the
    /// result to `proven_optimal: false` instead of looping forever on a
    /// misbehaving source.
    pub max_rounds: usize,
    /// `max_columns` per pricing request.
    pub pricing_batch: usize,
    /// Reduced-cost tolerance: the LP loop prices at `−eps`, gap closing
    /// adds `+eps` of slack so float noise never hides a useful column.
    pub eps: f64,
    /// Engine for the restricted master LP solves.
    pub master: MasterEngine,
}

impl Default for ColGenOptions {
    fn default() -> Self {
        ColGenOptions {
            engine: SolveEngine::default(),
            presolve: PresolveOptions::default(),
            max_nodes: 0,
            max_rounds: 10_000,
            pricing_batch: 256,
            eps: 1e-7,
            master: MasterEngine::default(),
        }
    }
}

/// Counters from one column-generation run. Both master engines drive the
/// same loop body, so every counter means the same thing on either route.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ColGenStats {
    /// Master LP solves (each is one re-optimization round).
    pub lp_solves: usize,
    /// Pricing calls answered by the source.
    pub pricing_calls: usize,
    /// Columns priced into the master (after dedup).
    pub columns_generated: usize,
    /// Restricted integer solves.
    pub ip_solves: usize,
    /// Final LP relaxation value — a valid global lower bound, recorded
    /// only once the LP *priced out* (an exact empty reply under the true
    /// duals). `NAN` if the run ended before that point, including when
    /// the round budget ran out: the restricted value then bounds nothing.
    pub lp_bound: f64,
    /// Simplex pivots across all master solves (dense and revised alike).
    pub master_pivots: usize,
    /// Master solves whose optimum still carried artificial mass — rounds
    /// where the restricted pool could not yet form a fractional cover.
    pub artificial_rounds: usize,
    /// Always 0: pricing runs on the true duals only, so no pass can
    /// misprice. Kept so existing readers of the counter still compile.
    pub mispricings: usize,
}

/// The outcome of [`solve_column_generation`].
#[derive(Debug, Clone)]
pub struct ColGenSolution {
    /// Selected columns `(sorted members, cost)`, ordered by members.
    pub columns: Vec<(Vec<usize>, f64)>,
    /// Total cost of the selection.
    pub cost: f64,
    /// Whether the gap-closing loop proved global optimality (false when
    /// a node budget or `max_rounds` ran out).
    pub proven_optimal: bool,
    /// Run counters.
    pub stats: ColGenStats,
}

/// How [`Pool::insert`] changed the pool — the live master mirrors each
/// change (append the new column, or lower a held cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolChange {
    /// A new member set entered at this column index.
    Added(usize),
    /// A known member set got strictly cheaper at this column index.
    Cheaper(usize),
    /// Duplicate at no better cost (or an empty member set): no change.
    Unchanged,
}

/// The restricted-master pool: dedup by member set, cheapest cost wins.
struct Pool {
    columns: Vec<(Vec<usize>, f64)>,
    by_members: HashMap<Vec<usize>, usize>,
}

impl Pool {
    fn new() -> Pool {
        Pool { columns: Vec::new(), by_members: HashMap::new() }
    }

    /// Inserts a column, reporting how the pool changed. Empty member sets
    /// are rejected — they cover nothing and the presolved IP drops them,
    /// so admitting them would let the LP and IP disagree.
    fn insert(&mut self, mut members: Vec<usize>, cost: f64) -> PoolChange {
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            return PoolChange::Unchanged;
        }
        match self.by_members.entry(members) {
            std::collections::hash_map::Entry::Vacant(e) => {
                let members = e.key().clone();
                self.columns.push((members, cost));
                e.insert(self.columns.len() - 1);
                PoolChange::Added(self.columns.len() - 1)
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let idx = *e.get();
                let held = &mut self.columns[idx].1;
                if cost < *held - 1e-12 {
                    *held = cost;
                    PoolChange::Cheaper(idx)
                } else {
                    PoolChange::Unchanged
                }
            }
        }
    }
}

/// The live master LP behind the loop: either the incremental revised
/// master, or a marker for the dense route (which rebuilds the model from
/// the pool on every solve and therefore keeps no state).
enum MasterState {
    Dense,
    Revised(Box<RevisedMaster>),
}

impl MasterState {
    /// Mirrors one [`PoolChange`] into the live master.
    fn apply(&mut self, pool: &Pool, change: PoolChange) {
        let MasterState::Revised(master) = self else { return };
        match change {
            PoolChange::Added(idx) => {
                let (members, cost) = &pool.columns[idx];
                master.append_column(members, *cost);
            }
            PoolChange::Cheaper(idx) => master.update_cost(idx, pool.columns[idx].1),
            PoolChange::Unchanged => {}
        }
    }

    /// Re-optimizes the master, returning `(duals, objective, artificial
    /// usage)`. One shared call site feeds the stats, so both engines
    /// account rounds, pivots and artificial usage identically. `None`
    /// only when the LP is unbounded/infeasible — unreachable for big-M
    /// masters (mirrors the dense route's unreachable arms).
    fn solve(
        &mut self,
        pool: &Pool,
        num_elements: usize,
        min_sets: Option<usize>,
        max_sets: Option<usize>,
        stats: &mut ColGenStats,
    ) -> Option<(Vec<f64>, f64, f64)> {
        stats.lp_solves += 1;
        let warm: Option<MasterLp> = match self {
            MasterState::Dense => None,
            // A `None` here is a numeric failure even the cold restart
            // could not clear; the dense rebuild below recovers exactly.
            MasterState::Revised(master) => master.solve(),
        };
        let (duals, objective, art_usage) = match warm {
            Some(lp) => {
                stats.master_pivots += lp.pivots;
                (lp.duals, lp.objective, lp.art_usage)
            }
            None => {
                let (model, art_vars) = master_model(pool, num_elements, min_sets, max_sets);
                let (result, pivots) = solve_lp_with_duals_counted(&model);
                stats.master_pivots += pivots;
                let (solution, duals) = match result {
                    LpDualResult::Optimal { solution, duals } => (solution, duals),
                    // Artificials keep the master primal-feasible and the
                    // costs are nonnegative, so neither arm is reachable.
                    LpDualResult::Infeasible | LpDualResult::Unbounded => return None,
                };
                let art_usage: f64 = art_vars.iter().map(|&v| solution.values[v]).sum();
                (duals, solution.objective, art_usage)
            }
        };
        if art_usage > ART_EPS {
            stats.artificial_rounds += 1;
        }
        Some((duals, objective, art_usage))
    }
}

/// Artificial mass above this means the restricted LP is not yet covering.
const ART_EPS: f64 = 1e-6;

/// Solves a set-partitioning instance by column generation over the
/// implicit pool behind `source`, starting from the `initial` columns
/// (typically a cheap feasible or near-feasible warm set — singletons, a
/// greedy cover). Returns `None` when the instance is infeasible: the
/// source priced out at `+∞` and still no exact cover within the bounds
/// exists.
pub fn solve_column_generation(
    num_elements: usize,
    bounds: (Option<usize>, Option<usize>),
    initial: &[(Vec<usize>, f64)],
    source: &mut dyn ColumnSource,
    options: &ColGenOptions,
) -> Option<ColGenSolution> {
    let (min_sets, max_sets) = bounds;
    let mut stats = ColGenStats { lp_bound: f64::NAN, ..Default::default() };
    if num_elements == 0 {
        // No elements: only empty sets could be selected and those are
        // not admissible columns, so the empty selection is the sole
        // candidate — feasible iff no minimum is demanded.
        if min_sets.unwrap_or(0) > 0 {
            return None;
        }
        return Some(ColGenSolution {
            columns: Vec::new(),
            cost: 0.0,
            proven_optimal: true,
            stats,
        });
    }
    if min_sets.is_some_and(|min| min > num_elements) {
        // Selected sets are disjoint and nonempty: at most one per element.
        return None;
    }

    let mut pool = Pool::new();
    let mut master = match options.master {
        MasterEngine::Dense => MasterState::Dense,
        MasterEngine::Revised => {
            MasterState::Revised(Box::new(RevisedMaster::new(num_elements, min_sets, max_sets)))
        }
    };
    for (members, cost) in initial {
        let change = pool.insert(members.clone(), *cost);
        if change != PoolChange::Unchanged {
            stats.columns_generated += 1;
        }
        master.apply(&pool, change);
    }

    let mut rounds_left = options.max_rounds;
    let mut incumbent: Option<SetPartitionSolution> = None;
    loop {
        // Inner loop: re-optimize the master and price until the LP is
        // optimal over the *full* implicit pool (an exact empty reply
        // under the true duals), or the round budget runs dry.
        let (duals, z_lp, art_usage, budget_out) = loop {
            let (duals, z_lp, art_usage) =
                master.solve(&pool, num_elements, min_sets, max_sets, &mut stats)?;
            if rounds_left == 0 {
                break (duals, z_lp, art_usage, true);
            }
            rounds_left -= 1;
            stats.pricing_calls += 1;
            let request =
                PricingRequest { threshold: -options.eps, max_columns: options.pricing_batch };
            let per_set: f64 = duals[num_elements..].iter().sum();
            let prices = DualPrices { element: &duals[..num_elements], per_set };
            if !price_into(&mut pool, &mut master, source, &prices, &request, &mut stats) {
                break (duals, z_lp, art_usage, false);
            }
        };
        let per_set: f64 = duals[num_elements..].iter().sum();
        let prices = DualPrices { element: &duals[..num_elements], per_set };

        if art_usage > ART_EPS {
            if budget_out {
                // Round budget exhausted while the master still leans on
                // artificials: the source was never proven empty, so the
                // instance is *not* known infeasible — degrade to a
                // best-effort restricted solve instead of reporting `None`.
                return degraded(num_elements, bounds, &pool, &prices, options, incumbent, stats);
            }
            // The LP itself needs artificials: the restricted pool cannot
            // even form a fractional cover. Ask for everything that is
            // left; if the implicit pool is exhausted the instance is
            // infeasible (the LP relaxation over the full pool has no
            // solution, so neither has the IP).
            match exhaust(
                &mut pool,
                &mut master,
                source,
                &prices,
                options,
                &mut rounds_left,
                &mut stats,
            ) {
                Exhaust::Grew => continue,
                Exhaust::ProvenEmpty => return None,
                Exhaust::Budget => {
                    return degraded(
                        num_elements,
                        bounds,
                        &pool,
                        &prices,
                        options,
                        incumbent,
                        stats,
                    )
                }
            }
        }
        if !budget_out {
            // Only a priced-out LP value bounds the full problem; a
            // budget-truncated restricted optimum bounds nothing.
            stats.lp_bound = z_lp;
        }

        // Restricted IP over the real columns. Once an incumbent exists,
        // only columns pricing below the gap can be part of a cheaper
        // cover (step 4 of the module docs), so the IP skips the rest.
        stats.ip_solves += 1;
        let rc_limit =
            incumbent.as_ref().map_or(f64::INFINITY, |inc| inc.cost - z_lp + options.eps);
        let Some(solution) = restricted_ip(num_elements, bounds, &pool, &prices, rc_limit, options)
        else {
            if let Some(best) = incumbent {
                // Each column of the incumbent's cover prices below the
                // gap, so the filtered pool still holds that cover: only
                // the node budget leaves the IP without one.
                return Some(finish(best, &pool, false, stats));
            }
            // LP-feasible but no integer cover in the restricted pool
            // (cardinality bounds, parity…): only the full pool can
            // decide, so fall back to exhaustive pricing.
            match exhaust(
                &mut pool,
                &mut master,
                source,
                &prices,
                options,
                &mut rounds_left,
                &mut stats,
            ) {
                Exhaust::Grew => continue,
                Exhaust::ProvenEmpty | Exhaust::Budget => return None,
            }
        };
        let proven = solution.proven_optimal;
        if incumbent.as_ref().is_none_or(|inc| solution.cost < inc.cost - 1e-12) {
            incumbent = Some(solution);
        }
        let best = incumbent.as_ref().expect("incumbent was just set or kept");
        if !proven || rounds_left == 0 || budget_out {
            return Some(finish(best.clone(), &pool, false, stats));
        }
        let gap = best.cost - z_lp;
        if gap <= options.eps {
            return Some(finish(best.clone(), &pool, true, stats));
        }
        // Any cover cheaper than the incumbent is built entirely from
        // columns pricing below the gap (all reduced costs are ≥ −eps
        // after convergence and they sum to < gap).
        rounds_left -= 1;
        stats.pricing_calls += 1;
        let request =
            PricingRequest { threshold: gap + options.eps, max_columns: options.pricing_batch };
        if !price_into(&mut pool, &mut master, source, &prices, &request, &mut stats) {
            return Some(finish(best.clone(), &pool, true, stats));
        }
    }
}

/// The restricted IP over the pool columns whose reduced cost under
/// `prices` lies below `rc_limit` (every column when it is infinite).
/// The solution's `selected` indexes the pool.
///
/// A finite limit must not cut a cover the caller still needs. The loop
/// passes `incumbent.cost − z_LP + eps` under the duals of the master it
/// just solved over the whole pool: every exact cover `S` within the count
/// bounds has `cost(S) ≥ z_LP + Σ_{j∈S} rc_j`, and every pool column has
/// `rc_j ≥ 0` up to the simplex tolerance. So each column of a cover no
/// dearer than the incumbent prices at most the gap plus that tolerance,
/// below the limit: the incumbent's own cover stays, and so does every
/// cover that could replace it.
fn restricted_ip(
    num_elements: usize,
    bounds: (Option<usize>, Option<usize>),
    pool: &Pool,
    prices: &DualPrices<'_>,
    rc_limit: f64,
    options: &ColGenOptions,
) -> Option<SetPartitionSolution> {
    let mut problem = SetPartitionProblem::new(num_elements);
    problem.min_sets = bounds.0;
    problem.max_sets = bounds.1;
    problem.max_nodes = options.max_nodes;
    let mut kept = Vec::new();
    for (j, (members, cost)) in pool.columns.iter().enumerate() {
        if prices.reduced_cost(members, *cost) < rc_limit {
            kept.push(j);
            problem.add_set(members.clone(), *cost);
        }
    }
    let mut solution = problem.solve_presolved(options.engine, &options.presolve)?;
    for i in &mut solution.selected {
        *i = kept[*i];
    }
    Some(solution)
}

/// Best-effort exit when the round budget died before the master shed its
/// artificials: the source was never proven empty, so `None` would wrongly
/// report a (possibly feasible) instance as infeasible. Solve the
/// restricted IP over whatever the pool holds; any cover it finds — or a
/// better earlier incumbent — returns unproven.
fn degraded(
    num_elements: usize,
    bounds: (Option<usize>, Option<usize>),
    pool: &Pool,
    prices: &DualPrices<'_>,
    options: &ColGenOptions,
    incumbent: Option<SetPartitionSolution>,
    mut stats: ColGenStats,
) -> Option<ColGenSolution> {
    stats.ip_solves += 1;
    let found = restricted_ip(num_elements, bounds, pool, prices, f64::INFINITY, options);
    let solution = match (found, incumbent) {
        (Some(found), Some(inc)) => {
            if found.cost < inc.cost - 1e-12 {
                found
            } else {
                inc
            }
        }
        (Some(found), None) => found,
        (None, Some(inc)) => inc,
        (None, None) => return None,
    };
    Some(finish(solution, pool, false, stats))
}

/// Builds the restricted master LP: exactly-one rows per element, the
/// optional cardinality rows, and one big-M artificial per element (in
/// its cover row and the minimum row, never the maximum row, so the
/// master is always feasible while artificials cannot mask a violated
/// maximum). Returns the model and the artificial variable indices.
fn master_model(
    pool: &Pool,
    num_elements: usize,
    min_sets: Option<usize>,
    max_sets: Option<usize>,
) -> (Model, Vec<usize>) {
    let max_cost = pool.columns.iter().map(|(_, c)| c.abs()).fold(1.0, f64::max);
    let big_m = 10.0 * max_cost * (num_elements as f64 + 1.0);
    let mut model = Model::new();
    let vars: Vec<usize> = pool.columns.iter().map(|(_, cost)| model.add_var(*cost)).collect();
    let art_vars: Vec<usize> = (0..num_elements).map(|_| model.add_var(big_m)).collect();
    let mut cover: Vec<Vec<(usize, f64)>> =
        (0..num_elements).map(|e| vec![(art_vars[e], 1.0)]).collect();
    for (j, (members, _)) in pool.columns.iter().enumerate() {
        for &e in members {
            cover[e].push((vars[j], 1.0));
        }
    }
    for terms in cover {
        model.add_constraint(terms, Sense::Eq, 1.0);
    }
    if let Some(max) = max_sets {
        model.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Sense::Le, max as f64);
    }
    if let Some(min) = min_sets {
        let terms = vars.iter().chain(&art_vars).map(|&v| (v, 1.0)).collect();
        model.add_constraint(terms, Sense::Ge, min as f64);
    }
    (model, art_vars)
}

/// One pricing call folded into the pool (and mirrored into the live
/// master); returns whether anything new (or cheaper) arrived.
fn price_into(
    pool: &mut Pool,
    master: &mut MasterState,
    source: &mut dyn ColumnSource,
    prices: &DualPrices<'_>,
    request: &PricingRequest,
    stats: &mut ColGenStats,
) -> bool {
    let mut fresh = false;
    for (members, cost) in source.price(prices, request) {
        let change = pool.insert(members, cost);
        if change != PoolChange::Unchanged {
            stats.columns_generated += 1;
            fresh = true;
        }
        master.apply(pool, change);
    }
    fresh
}

/// How a call to [`exhaust`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exhaust {
    /// The pool grew; re-solve the master and try again.
    Grew,
    /// The source replied empty without growing the pool: the implicit
    /// pool holds nothing beyond what the master already has — a *proof*.
    ProvenEmpty,
    /// The round budget ran out first. Nothing was proven; callers must
    /// not conclude infeasibility from this.
    Budget,
}

/// Prices with an infinite threshold until the source is exhausted, the
/// pool grows, or the budget runs out.
fn exhaust(
    pool: &mut Pool,
    master: &mut MasterState,
    source: &mut dyn ColumnSource,
    prices: &DualPrices<'_>,
    options: &ColGenOptions,
    rounds_left: &mut usize,
    stats: &mut ColGenStats,
) -> Exhaust {
    let mut grew = false;
    while *rounds_left > 0 {
        *rounds_left -= 1;
        stats.pricing_calls += 1;
        let request =
            PricingRequest { threshold: f64::INFINITY, max_columns: options.pricing_batch };
        let reply = source.price(prices, &request);
        if reply.is_empty() {
            return if grew { Exhaust::Grew } else { Exhaust::ProvenEmpty };
        }
        for (members, cost) in reply {
            let change = pool.insert(members, cost);
            if change != PoolChange::Unchanged {
                stats.columns_generated += 1;
                grew = true;
            }
            master.apply(pool, change);
        }
    }
    if grew {
        Exhaust::Grew
    } else {
        Exhaust::Budget
    }
}

/// Maps a restricted-pool solution back to its columns.
fn finish(
    solution: SetPartitionSolution,
    pool: &Pool,
    proven_optimal: bool,
    stats: ColGenStats,
) -> ColGenSolution {
    let mut columns: Vec<(Vec<usize>, f64)> =
        solution.selected.iter().map(|&i| pool.columns[i].clone()).collect();
    columns.sort_by(|a, b| a.0.cmp(&b.0));
    ColGenSolution {
        columns,
        cost: solution.cost,
        proven_optimal: proven_optimal && solution.proven_optimal,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn colgen_over(
        num_elements: usize,
        bounds: (Option<usize>, Option<usize>),
        pool: &[(&[usize], f64)],
        initial: usize,
    ) -> Option<ColGenSolution> {
        let columns: Vec<(Vec<usize>, f64)> = pool.iter().map(|(m, c)| (m.to_vec(), *c)).collect();
        let warm: Vec<(Vec<usize>, f64)> = columns[..initial].to_vec();
        let mut source = EnumeratedColumnSource::new(columns);
        solve_column_generation(num_elements, bounds, &warm, &mut source, &ColGenOptions::default())
    }

    fn oracle(
        num_elements: usize,
        bounds: (Option<usize>, Option<usize>),
        pool: &[(&[usize], f64)],
    ) -> Option<SetPartitionSolution> {
        let mut p = SetPartitionProblem::new(num_elements);
        p.min_sets = bounds.0;
        p.max_sets = bounds.1;
        for (members, cost) in pool {
            p.add_set(members.to_vec(), *cost);
        }
        p.solve(SolveEngine::Dlx)
    }

    fn assert_matches_oracle(
        num_elements: usize,
        bounds: (Option<usize>, Option<usize>),
        pool: &[(&[usize], f64)],
        initial: usize,
    ) -> Option<ColGenSolution> {
        let cg = colgen_over(num_elements, bounds, pool, initial);
        let oracle = oracle(num_elements, bounds, pool);
        match (&cg, &oracle) {
            (None, None) => {}
            (Some(cg), Some(oracle)) => {
                assert!(cg.proven_optimal, "{cg:?}");
                assert!((cg.cost - oracle.cost).abs() < 1e-9, "{cg:?} vs {oracle:?}");
                let mut covered = vec![0usize; num_elements];
                for (members, _) in &cg.columns {
                    for &e in members {
                        covered[e] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "not an exact cover: {cg:?}");
            }
            other => panic!("routes disagree on feasibility: {other:?}"),
        }
        cg
    }

    #[test]
    fn prices_in_the_optimal_pair() {
        // Warm start: expensive singletons. The cheap pair {0,1} must be
        // priced in through the duals.
        let pool: &[(&[usize], f64)] =
            &[(&[0], 1.0), (&[1], 1.0), (&[0, 1], 0.5), (&[0, 1, 2], 9.0), (&[2], 0.3)];
        let s = assert_matches_oracle(3, (None, None), pool, 2).unwrap();
        assert!((s.cost - 0.8).abs() < 1e-9);
        assert_eq!(s.columns, vec![(vec![0, 1], 0.5), (vec![2], 0.3)]);
    }

    #[test]
    fn gap_closing_prices_past_the_lp_optimum() {
        // Odd cycle: the LP settles at 1.5 with the three pairs at ½ each
        // and reduced cost of the triple (1.55 − 1.5) = 0.05 > 0, so the
        // LP loop alone never admits it. Only the IP gap (1.7 − 1.5 = 0.2)
        // prices it in; the true optimum is the triple at 1.55.
        let pool: &[(&[usize], f64)] = &[
            (&[0], 0.7),
            (&[1], 0.7),
            (&[2], 0.7),
            (&[0, 1], 1.0),
            (&[1, 2], 1.0),
            (&[0, 2], 1.0),
            (&[0, 1, 2], 1.55),
        ];
        let s = assert_matches_oracle(3, (None, None), pool, 6).unwrap();
        assert!((s.cost - 1.55).abs() < 1e-9, "{s:?}");
        assert_eq!(s.columns.len(), 1);
        assert!(s.stats.ip_solves >= 2, "gap closing re-solved the IP: {:?}", s.stats);
    }

    #[test]
    fn gap_closing_ip_keeps_columns_pricing_inside_the_gap() {
        // The odd cycle above plus element 3. The LP settles at 2.5 (pairs
        // at ½, duals ½ on elements 0–2 and 1 on element 3), and the first
        // IP pays 2.7 for a pair, a singleton and {3}: a gap of 0.2. Gap
        // pricing brings {2,3} in at reduced cost 0.15, and the cheaper
        // cover {0,1} + {2,3} = 2.65 needs it, so the second IP must keep
        // a column whose reduced cost lies strictly inside the gap.
        let pool: &[(&[usize], f64)] = &[
            (&[0], 0.7),
            (&[1], 0.7),
            (&[2], 0.7),
            (&[0, 1], 1.0),
            (&[1, 2], 1.0),
            (&[0, 2], 1.0),
            (&[3], 1.0),
            (&[2, 3], 1.65),
        ];
        let s = assert_matches_oracle(4, (None, None), pool, 7).unwrap();
        assert_eq!(s.columns, vec![(vec![0, 1], 1.0), (vec![2, 3], 1.65)]);
        assert_eq!(s.stats.ip_solves, 2, "{:?}", s.stats);
    }

    #[test]
    fn infeasible_when_the_full_pool_cannot_cover() {
        let pool: &[(&[usize], f64)] = &[(&[0], 1.0), (&[1], 1.0)];
        assert!(colgen_over(3, (None, None), pool, 1).is_none());
    }

    #[test]
    fn cardinality_bounds_respected() {
        // Optimum without bounds is the three singletons; max_sets = 2
        // forces a pair in.
        let pool: &[(&[usize], f64)] =
            &[(&[0], 0.2), (&[1], 0.2), (&[2], 0.2), (&[0, 1], 1.0), (&[1, 2], 0.9)];
        let s = assert_matches_oracle(3, (None, Some(2)), pool, 3).unwrap();
        assert!((s.cost - 1.1).abs() < 1e-9, "{s:?}");
        let s = assert_matches_oracle(3, (Some(3), None), pool, 5).unwrap();
        assert!((s.cost - 0.6).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn restricted_infeasibility_triggers_exhaustive_pricing() {
        // Warm start covers only {0}; with max_sets = 1 the restricted IP
        // is infeasible until the full set {0,1,2} arrives.
        let pool: &[(&[usize], f64)] = &[(&[0], 0.1), (&[0, 1, 2], 2.0), (&[1], 0.1), (&[2], 0.1)];
        let s = assert_matches_oracle(3, (None, Some(1)), pool, 1).unwrap();
        assert!((s.cost - 2.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn infeasible_bounds_detected() {
        let pool: &[(&[usize], f64)] = &[(&[0, 1], 1.0), (&[0], 0.4), (&[1], 0.4)];
        // min_sets = 3 > num_elements is impossible.
        assert!(colgen_over(2, (Some(3), None), pool, 1).is_none());
        // max_sets = 0 cannot cover anything.
        assert!(colgen_over(2, (None, Some(0)), pool, 1).is_none());
    }

    #[test]
    fn empty_universe() {
        let s = colgen_over(0, (None, None), &[], 0).unwrap();
        assert!(s.columns.is_empty());
        assert_eq!(s.cost, 0.0);
        assert!(s.proven_optimal);
        assert!(colgen_over(0, (Some(1), None), &[], 0).is_none());
    }

    #[test]
    fn empty_warm_start_bootstraps_from_artificials() {
        // No initial columns at all: the first duals are pure big-M, which
        // price every useful column in immediately.
        let pool: &[(&[usize], f64)] = &[(&[0, 1], 1.0), (&[2], 0.5), (&[0], 0.8), (&[1], 0.8)];
        let s = assert_matches_oracle(3, (None, None), pool, 0).unwrap();
        assert!((s.cost - 1.5).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn duplicate_and_unsorted_columns_are_normalized() {
        let pool: &[(&[usize], f64)] =
            &[(&[1, 0], 1.0), (&[0, 1], 0.6), (&[1, 0, 1], 0.9), (&[0], 0.4), (&[1], 0.4)];
        let s = assert_matches_oracle(2, (None, None), pool, 5).unwrap();
        assert!((s.cost - 0.6).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn stats_track_the_run() {
        let pool: &[(&[usize], f64)] = &[(&[0], 1.0), (&[1], 1.0), (&[0, 1], 0.5)];
        let s = colgen_over(2, (None, None), pool, 2).unwrap();
        assert!(s.stats.lp_solves >= 1);
        assert!(s.stats.ip_solves >= 1);
        assert_eq!(s.stats.columns_generated, 3);
        assert!(s.stats.lp_bound.is_finite());
        assert!(s.stats.lp_bound <= s.cost + 1e-9);
        assert!(s.stats.master_pivots >= 1, "{:?}", s.stats);
        assert_eq!(s.stats.mispricings, 0, "{:?}", s.stats);
    }

    fn colgen_with(
        num_elements: usize,
        bounds: (Option<usize>, Option<usize>),
        pool: &[(&[usize], f64)],
        initial: usize,
        options: &ColGenOptions,
    ) -> Option<ColGenSolution> {
        let columns: Vec<(Vec<usize>, f64)> = pool.iter().map(|(m, c)| (m.to_vec(), *c)).collect();
        let warm: Vec<(Vec<usize>, f64)> = columns[..initial].to_vec();
        let mut source = EnumeratedColumnSource::new(columns);
        solve_column_generation(num_elements, bounds, &warm, &mut source, options)
    }

    /// A borrowed test pool: element count plus `(members, cost)` columns.
    type PoolSpec<'a> = (usize, &'a [(&'a [usize], f64)]);

    /// Both master engines return the same cost on the same instance —
    /// the two routes are interchangeable.
    #[test]
    fn master_engines_agree_on_cost() {
        let pools: &[PoolSpec<'_>] = &[
            (3, &[(&[0], 1.0), (&[1], 1.0), (&[0, 1], 0.5), (&[0, 1, 2], 9.0), (&[2], 0.3)]),
            (
                3,
                &[
                    (&[0], 0.7),
                    (&[1], 0.7),
                    (&[2], 0.7),
                    (&[0, 1], 1.0),
                    (&[1, 2], 1.0),
                    (&[0, 2], 1.0),
                    (&[0, 1, 2], 1.55),
                ],
            ),
            (4, &[(&[0, 1], 1.0), (&[2, 3], 1.0), (&[0, 1, 2, 3], 1.5), (&[1, 2], 0.4)]),
        ];
        for &(n, pool) in pools {
            let mut costs = Vec::new();
            for master in [MasterEngine::Revised, MasterEngine::Dense] {
                let options = ColGenOptions { master, ..ColGenOptions::default() };
                let s = colgen_with(n, (None, None), pool, 1, &options)
                    .unwrap_or_else(|| panic!("{master:?} found nothing"));
                assert!(s.proven_optimal, "{master:?}: {s:?}");
                costs.push(s.cost);
            }
            for w in costs.windows(2) {
                assert!((w[0] - w[1]).abs() < 1e-9, "route costs diverge: {costs:?}");
            }
        }
    }

    /// Budget exhaustion while the master still runs on artificials must
    /// degrade to a best-effort answer, not claim infeasibility: the
    /// source was never proven empty. (Regression: the old loop returned
    /// `None` here.)
    #[test]
    fn budget_exhaustion_during_bootstrap_is_not_infeasible() {
        let pool: &[(&[usize], f64)] = &[(&[0], 1.0), (&[1], 1.0), (&[2], 1.0), (&[0, 1, 2], 1.5)];
        // One round: enough to price *something* in, never enough to
        // clear the artificials and prove anything.
        let options = ColGenOptions { max_rounds: 1, ..ColGenOptions::default() };
        let s = colgen_with(3, (None, None), pool, 0, &options)
            .expect("feasible instance must not degrade to None");
        assert!(!s.proven_optimal, "{s:?}");
        assert!(s.stats.lp_bound.is_nan(), "truncated run has no valid bound: {:?}", s.stats);
        // Zero rounds with a warm cover: no pricing ever happens, yet the
        // restricted IP still answers — unproven, budget-bound.
        let options = ColGenOptions { max_rounds: 0, ..ColGenOptions::default() };
        let s = colgen_with(3, (None, None), pool, 4, &options).expect("warm cover exists");
        assert!(!s.proven_optimal, "{s:?}");
        assert!((s.cost - 1.5).abs() < 1e-9, "{s:?}");
    }

    /// The artificial bootstrap is counted once per master solve that
    /// still carries artificial mass, on either engine.
    #[test]
    fn artificial_rounds_counted_on_both_engines() {
        let pool: &[(&[usize], f64)] = &[(&[0, 1], 1.0), (&[2], 0.5)];
        for master in [MasterEngine::Revised, MasterEngine::Dense] {
            let options = ColGenOptions { master, ..ColGenOptions::default() };
            let s = colgen_with(3, (None, None), pool, 0, &options).unwrap();
            assert!(s.stats.artificial_rounds >= 1, "{master:?}: {:?}", s.stats);
            assert!(s.stats.lp_bound.is_finite(), "{master:?}: {:?}", s.stats);
        }
    }
}
