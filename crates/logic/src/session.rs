//! Incremental SMT sessions: encode once, query many times.
//!
//! [`SmtSession`] is the stateful counterpart of [`crate::solver::SmtSolver`]
//! for *query streams* against a shared assertion base — the lifter issuing
//! hundreds of entailment checks against the same `defs`, lint probing every
//! entry of one route-map's domain, diverse synthesis enumerating models.
//! The fresh solver re-bit-blasts, re-Tseitin-encodes, and re-searches from
//! scratch on every call; a session pays each of those costs once:
//!
//! - **Encode once.** A persistent [`BitBlaster`] and [`CnfBuilder`] are
//!   kept for the session's lifetime. Both memoize per hash-consed
//!   [`TermId`], so a query whose terms were already seen adds *zero* new
//!   gate clauses; novel subterms add only their own definitions. Freshly
//!   produced clauses are drained into the solver incrementally
//!   ([`CnfBuilder::take_new_clauses`]).
//! - **Assume per query.** Queries run as
//!   [`SatSolver::solve_with_assumptions`] over definition literals, so
//!   nothing a query adds needs to be retracted. The long-lived solver keeps
//!   its learned clauses and VSIDS activity between calls: conflicts
//!   resolved for one candidate prune the search for the next.
//! - **Decode on demand.** A SAT answer stays a raw solver model until a
//!   caller asks for it: [`SmtSession::entails_assuming`] discards it, while
//!   [`SmtSession::check_assuming`] and [`SmtSession::counter_model`]
//!   decode it into an [`Assignment`] over the term-level variables.
//! - **Reduce on threshold.** Retained learned clauses are bounded by the
//!   solver's LBD-tagged database reduction ([`SatSolver::reduce_db`]), so a
//!   long session cannot grow memory without limit.
//!
//! Budget and cancellation checks span query boundaries: every query runs a
//! preflight (fault site `session.query`, then the coarse budget axes) and
//! the search loop itself keeps its per-conflict checks. An interrupted
//! query returns [`SmtResult::Unknown`] and poisons *nothing* — answers
//! already returned stay valid, and the session keeps working once the
//! budget is restored.
//!
//! [`crate::solver::SmtSolver`] stays as the one-shot reference the
//! differential suites compare sessions against.

use crate::bitblast::BitBlaster;
use crate::budget::{Budget, Interrupt, InterruptReason};
use crate::cnf::CnfBuilder;
use crate::model::Assignment;
use crate::sat::{Lit, SatResult, SatSolver};
use crate::solver::{decode_model, fill_defaults_and_block, record_sat_stats, SmtResult};
use crate::term::{Ctx, TermId};
use netexpl_obs::Span;

/// A persistent solver session: assertions are encoded once and every query
/// runs under assumptions on the same long-lived [`SatSolver`].
///
/// `Clone` forks the whole session — encoder memo tables, CNF, and the
/// live solver with its learned clauses and VSIDS activity. A clone
/// answers from that shared learned state but evolves independently
/// afterwards, which is the mechanism behind the lifter's warm-session
/// store. Term ids created in the originating [`Ctx`](crate::term::Ctx)
/// before the fork stay valid in any clone of that context (the arena is
/// append-only).
#[derive(Debug, Default, Clone)]
pub struct SmtSession {
    bb: BitBlaster,
    builder: CnfBuilder,
    sat: SatSolver,
    budget: Budget,
    /// Queries answered so far (successful or not).
    queries: u64,
    /// Cost-attribution label for subsequent queries (the lift template or
    /// lint diagnostic that issued them), emitted as the `origin` attr on
    /// every `session.query` span until changed or cleared.
    origin: Option<String>,
    /// Latched when an assertion (or a side constraint) folded to `false`
    /// or closed the clause set: every later query is `Unsat`.
    unsat: bool,
}

impl SmtSession {
    /// Fresh session with no assertions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound subsequent queries by `budget`. The deadline and cancel token
    /// are shared globally; the integer caps apply per query.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Queries answered so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Clauses currently in the live solver (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.sat.num_clauses()
    }

    /// Learned-clause database reductions performed so far.
    pub fn reductions(&self) -> u64 {
        self.sat.reductions()
    }

    /// Tune the learned-clause count that triggers database reduction
    /// (0 disables). Exposed for tests; the default suits production.
    pub fn set_reduce_threshold(&mut self, n: usize) {
        self.sat.set_reduce_threshold(n);
    }

    /// Attribute subsequent queries to `origin` (a lift template like
    /// `lift:!(R1 -> P1)` or a lint probe like `NE010:R1:export:20`). The
    /// label lands on each `session.query` span, which is what lets
    /// `netexpl profile` rank hot SAT queries by what *asked* for them.
    pub fn set_origin(&mut self, origin: impl Into<String>) {
        self.origin = Some(origin.into());
    }

    /// Stop attributing queries (subsequent spans carry no `origin`).
    pub fn clear_origin(&mut self) {
        self.origin = None;
    }

    /// Override the CDCL introspection sampling cadence for this session's
    /// solver (conflicts per sample; 0 disables).
    pub fn set_sample_period(&mut self, period: u64) {
        self.sat.set_sample_period(period);
    }

    /// Permanently assert `t`. Encoding cost is paid now (only for subterms
    /// not already seen); the clauses stay for the session's lifetime.
    pub fn assert(&mut self, ctx: &mut Ctx, t: TermId) {
        let lowered = self.bb.lower(ctx, t);
        for side in self.bb.take_side_constraints() {
            if !self.builder.assert_term(ctx, side) {
                self.unsat = true;
            }
        }
        if !self.builder.assert_term(ctx, lowered) {
            self.unsat = true;
        }
        self.flush();
    }

    /// Encode `t` (without asserting) and return its definition literal, or
    /// `Err(constant)` when it folds. Side constraints introduced by the
    /// theory encoding are asserted permanently — they are definitions of
    /// the encoding, not part of any one query.
    fn literal(&mut self, ctx: &mut Ctx, t: TermId) -> Result<Lit, bool> {
        let lowered = self.bb.lower(ctx, t);
        for side in self.bb.take_side_constraints() {
            if !self.builder.assert_term(ctx, side) {
                self.unsat = true;
            }
        }
        let lit = self.builder.define_term(ctx, lowered);
        self.flush();
        lit
    }

    /// Feed newly emitted CNF (variables and clauses) into the live solver.
    fn flush(&mut self) {
        while self.sat.num_vars() < self.builder.num_vars() {
            self.sat.new_var();
        }
        for clause in self.builder.take_new_clauses() {
            if !self.sat.add_clause(&clause) {
                self.unsat = true;
            }
        }
    }

    /// Pre-query governance: injected faults and the coarse budget axes,
    /// checked before paying for encoding. Returns the interrupt to report.
    /// Firing between queries leaves the session fully usable: the
    /// in-flight query answers `Unknown`, nothing else changes.
    fn preflight(&self) -> Option<Interrupt> {
        let i = if netexpl_faults::triggered(netexpl_faults::sites::SESSION_QUERY) {
            Interrupt::new(InterruptReason::Fault, "session.query")
        } else {
            match self.budget.check_coarse("session.query") {
                Ok(()) => return None,
                Err(i) => i,
            }
        };
        i.record();
        Some(i)
    }

    /// Decide the asserted base under retractable assumptions. On `Unsat`
    /// the second component is an unsat core: indices into `assumptions`
    /// whose conjunction with the base is already unsatisfiable.
    ///
    /// Mirrors [`crate::solver::SmtSolver::check_assuming`], but the base is
    /// encoded exactly once per session and the SAT solver carries learned
    /// clauses and branching activity from every earlier query.
    pub fn check_assuming(
        &mut self,
        ctx: &mut Ctx,
        assumptions: &[TermId],
    ) -> (SmtResult, Vec<usize>) {
        match self.solve(ctx, assumptions) {
            (SatResult::Sat(model), _) => (SmtResult::Sat(self.decode(ctx, &model)), Vec::new()),
            (SatResult::Unsat, core) => (SmtResult::Unsat, core),
            (SatResult::Unknown(i), _) => (SmtResult::Unknown(i), Vec::new()),
        }
    }

    /// The query behind every public entry point. A SAT answer comes back
    /// as the raw solver model; only callers that want the model pay for
    /// [`SmtSession::decode`].
    fn solve(&mut self, ctx: &mut Ctx, assumptions: &[TermId]) -> (SatResult, Vec<usize>) {
        let span = Span::enter("session.query");
        span.attr("assumptions", assumptions.len());
        if span.is_recording() {
            if let Some(origin) = &self.origin {
                span.attr("origin", origin.clone());
            }
        }
        netexpl_obs::counter_add("session.queries", 1);
        self.queries += 1;
        if let Some(i) = self.preflight() {
            return (SatResult::Unknown(i), Vec::new());
        }
        if self.unsat {
            return (SatResult::Unsat, Vec::new());
        }
        let mut lits: Vec<(usize, Lit)> = Vec::new();
        for (i, &t) in assumptions.iter().enumerate() {
            match self.literal(ctx, t) {
                Ok(l) => lits.push((i, l)),
                Err(true) => {} // constant-true assumption: no literal needed
                Err(false) => return (SatResult::Unsat, vec![i]),
            }
        }
        if self.unsat {
            // A side constraint of an assumption's encoding folded false.
            return (SatResult::Unsat, Vec::new());
        }
        if span.is_recording() {
            span.attr("cnf_vars", self.builder.num_vars());
            span.attr("cnf_clauses", self.sat.num_clauses());
        }
        let assumption_lits: Vec<Lit> = lits.iter().map(|&(_, l)| l).collect();
        self.sat.set_budget(self.budget.clone());
        let reductions_before = self.sat.reductions();
        let result = self.sat.solve_with_assumptions(&assumption_lits);
        record_sat_stats(&self.sat.stats);
        let reduced = self.sat.reductions() - reductions_before;
        if reduced > 0 {
            netexpl_obs::counter_add("session.db_reductions", reduced);
        }
        span.attr("sat", result.is_sat());
        let core = if matches!(result, SatResult::Unsat) {
            let core_lits = self.sat.unsat_core();
            lits.iter()
                .filter(|(_, l)| core_lits.contains(l))
                .map(|&(i, _)| i)
                .collect()
        } else {
            Vec::new()
        };
        (result, core)
    }

    /// Decode a raw model of this session's solver into an assignment over
    /// the term-level variables encoded so far.
    fn decode(&self, ctx: &Ctx, model: &[bool]) -> Assignment {
        let _span = Span::enter("session.decode");
        decode_model(ctx, &self.bb, self.builder.var_map(), model)
    }

    /// Decide the asserted base on its own.
    pub fn check(&mut self, ctx: &mut Ctx) -> SmtResult {
        self.check_assuming(ctx, &[]).0
    }

    /// Budgeted entailment against the base: base ⊨ `b`?
    pub fn entails(&mut self, ctx: &mut Ctx, b: TermId) -> Result<bool, Interrupt> {
        self.entails_assuming(ctx, &[], b)
    }

    /// Budgeted entailment with retractable extra hypotheses:
    /// base ∧ `extra` ⊨ `b`? The extras are assumptions, not assertions —
    /// the base is unchanged afterwards. A refuting model is not decoded.
    pub fn entails_assuming(
        &mut self,
        ctx: &mut Ctx,
        extra: &[TermId],
        b: TermId,
    ) -> Result<bool, Interrupt> {
        match self.refute(ctx, extra, b) {
            SatResult::Sat(_) => Ok(false),
            SatResult::Unsat => Ok(true),
            SatResult::Unknown(i) => Err(i),
        }
    }

    /// [`SmtSession::entails_assuming`] that keeps the evidence: `Ok(None)`
    /// when base ∧ `extra` ⊨ `b`, otherwise the decoded counter-model, a
    /// model of base ∧ `extra` ∧ ¬`b`.
    pub fn counter_model(
        &mut self,
        ctx: &mut Ctx,
        extra: &[TermId],
        b: TermId,
    ) -> Result<Option<Assignment>, Interrupt> {
        match self.refute(ctx, extra, b) {
            SatResult::Sat(model) => Ok(Some(self.decode(ctx, &model))),
            SatResult::Unsat => Ok(None),
            SatResult::Unknown(i) => Err(i),
        }
    }

    /// Search for a model of base ∧ `extra` ∧ ¬`b`.
    fn refute(&mut self, ctx: &mut Ctx, extra: &[TermId], b: TermId) -> SatResult {
        let nb = ctx.not(b);
        let mut assumptions: Vec<TermId> = extra.to_vec();
        assumptions.push(nb);
        self.solve(ctx, &assumptions).0
    }

    /// Enumerate up to `limit` models pairwise distinct on `distinct_on`,
    /// mirroring [`crate::solver::SmtSolver::check_all`]. Blocking clauses
    /// are asserted permanently into the session — exactly the incremental
    /// use case: each successive model search starts from the previous
    /// one's learned clauses.
    pub fn check_all(
        &mut self,
        ctx: &mut Ctx,
        distinct_on: &[TermId],
        limit: usize,
    ) -> (Vec<Assignment>, Option<Interrupt>) {
        let mut models = Vec::new();
        while models.len() < limit {
            let (result, _core) = self.check_assuming(ctx, &[]);
            if let SmtResult::Unknown(i) = result {
                return (models, Some(i));
            }
            let Some(mut model) = result.model() else {
                break;
            };
            let Some(block) = fill_defaults_and_block(ctx, &mut model, distinct_on) else {
                models.push(model);
                break; // nothing to block on: one model is all there is
            };
            self.assert(ctx, block);
            models.push(model);
        }
        (models, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SmtSolver;

    #[test]
    fn session_matches_fresh_solver_on_basic_queries() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);

        let mut session = SmtSession::new();
        session.assert(&mut ctx, ab);
        // base ⊨ a, base ⊨ b, base ⊭ ¬a.
        assert_eq!(session.entails(&mut ctx, a), Ok(true));
        assert_eq!(session.entails(&mut ctx, b), Ok(true));
        let na = ctx.not(a);
        assert_eq!(session.entails(&mut ctx, na), Ok(false));
        assert_eq!(session.queries(), 3);

        let mut fresh = SmtSolver::new();
        fresh.assert(ab);
        assert!(!fresh.check_with(&mut ctx, &[na]).is_sat());
    }

    #[test]
    fn assumptions_do_not_persist_across_queries() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, a);
        let (r1, core) = session.check_assuming(&mut ctx, &[na]);
        assert_eq!(r1, SmtResult::Unsat);
        assert_eq!(core, vec![0]);
        // The failed assumption must be fully retracted.
        assert!(session.check(&mut ctx).is_sat());
    }

    #[test]
    fn folded_assumptions_report_constants() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let mut session = SmtSession::new();
        session.assert(&mut ctx, a);
        // Constant-true assumption: no effect.
        let (r, _) = session.check_assuming(&mut ctx, &[t]);
        assert!(r.is_sat());
        // Constant-false assumption: immediate singleton core.
        let (r, core) = session.check_assuming(&mut ctx, &[a, f]);
        assert_eq!(r, SmtResult::Unsat);
        assert_eq!(core, vec![1]);
        // Session still healthy.
        assert!(session.check(&mut ctx).is_sat());
    }

    #[test]
    fn unsat_base_latches() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, a);
        session.assert(&mut ctx, na);
        assert_eq!(session.check(&mut ctx), SmtResult::Unsat);
        let b = ctx.bool_var("b");
        let (r, _) = session.check_assuming(&mut ctx, &[b]);
        assert_eq!(r, SmtResult::Unsat);
    }

    #[test]
    fn theory_atoms_share_encoding_across_queries() {
        let mut ctx = Ctx::new();
        let lp = ctx.int_var("lp", 0, 200);
        let hundred = ctx.int_const(100);
        let fifty = ctx.int_const(50);
        let gt100 = ctx.gt(lp, hundred);
        let gt50 = ctx.gt(lp, fifty);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, gt100);
        // lp > 100 ⊨ lp > 50 but not the converse direction's strengthening.
        assert_eq!(session.entails(&mut ctx, gt50), Ok(true));
        let clauses_after_first = session.num_clauses();
        // Re-query with already-seen terms: only learned clauses may have
        // been added; no new encoding.
        assert_eq!(session.entails(&mut ctx, gt50), Ok(true));
        assert!(
            session.num_clauses() <= clauses_after_first + 2,
            "re-query must not re-encode: {} -> {}",
            clauses_after_first,
            session.num_clauses()
        );
    }

    #[test]
    fn session_model_decodes_theory_variables() {
        let mut ctx = Ctx::new();
        let attr = ctx.enum_sort("Attr", &["NextHop", "LocalPref"]);
        let v = ctx.enum_var("v", attr);
        let nh = ctx.enum_const_named(attr, "NextHop");
        let eq = ctx.eq(v, nh);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, eq);
        let model = session.check(&mut ctx).model().expect("sat");
        assert_eq!(model.eval_bool(&ctx, eq), Some(true));
    }

    #[test]
    fn check_all_enumerates_like_fresh_solver() {
        let mut ctx = Ctx::new();
        let s3 = ctx.enum_sort("S", &["a", "b", "c"]);
        let v = ctx.enum_var("v", s3);
        let c0 = ctx.enum_const(s3, 0);
        let not_a = ctx.neq(v, c0);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, not_a);
        let (models, interrupt) = session.check_all(&mut ctx, &[v], 10);
        assert!(interrupt.is_none());
        assert_eq!(models.len(), 2, "v ∈ {{b, c}}");
        let vals: std::collections::HashSet<_> =
            models.iter().map(|m| m.eval(&ctx, v).unwrap()).collect();
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn interrupted_query_leaves_session_usable() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, ab);
        assert_eq!(session.entails(&mut ctx, a), Ok(true));
        // Exhaust the budget between queries: the in-flight query must
        // answer Unknown without poisoning the session.
        session.set_budget(Budget::unlimited().deadline_in(std::time::Duration::ZERO));
        let err = session.entails(&mut ctx, b).unwrap_err();
        assert_eq!(err.reason, InterruptReason::Deadline);
        // Restore the budget: the same query now answers, and the earlier
        // answer is still reproducible.
        session.set_budget(Budget::unlimited());
        assert_eq!(session.entails(&mut ctx, b), Ok(true));
        assert_eq!(session.entails(&mut ctx, a), Ok(true));
    }

    #[test]
    fn fault_site_interrupts_only_the_inflight_query() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, ab);
        assert_eq!(session.entails(&mut ctx, a), Ok(true));
        {
            let _g = netexpl_faults::arm(netexpl_faults::sites::SESSION_QUERY);
            let err = session.entails(&mut ctx, b).unwrap_err();
            assert_eq!(err.reason, InterruptReason::Fault);
            assert_eq!(err.at, "session.query");
        }
        assert_eq!(session.entails(&mut ctx, b), Ok(true));
    }

    #[test]
    fn session_emits_metrics() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.or2(a, b);
        let (guard, handle) = netexpl_obs::install_memory();
        let mut session = SmtSession::new();
        session.assert(&mut ctx, ab);
        assert_eq!(session.entails(&mut ctx, a), Ok(false));
        assert_eq!(session.entails(&mut ctx, ab), Ok(true));
        drop(guard);
        let metrics = handle.metrics().unwrap();
        assert_eq!(metrics.counter("session.queries"), 2);
        assert_eq!(session.queries(), 2);
        assert_eq!(handle.spans_named("session.query").len(), 2);
    }

    /// Asserting `act → reqs` behind a fresh activation literal changes no
    /// query made without `act` (a model may set `act` false), while a
    /// query assuming `act` answers as if `reqs` were asserted. This is
    /// what lets the lifter judge both sides on one session.
    #[test]
    fn guarded_assertion_only_acts_under_its_literal() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let (na, nb, nc) = (ctx.not(a), ctx.not(b), ctx.not(c));
        let base = ctx.or2(a, b);
        let reqs = ctx.and2(na, c);
        let act = ctx.bool_var("act");
        let guarded = ctx.implies(act, reqs);

        let mut plain = SmtSession::new();
        plain.assert(&mut ctx, base);
        let mut with_reqs = SmtSession::new();
        with_reqs.assert(&mut ctx, base);
        with_reqs.assert(&mut ctx, reqs);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, base);
        session.assert(&mut ctx, guarded);

        let queries: [&[TermId]; 8] =
            [&[], &[a], &[na], &[nb], &[nc], &[a, nc], &[na, nb], &[b, c]];
        let mut differ = 0;
        for q in queries {
            let without = plain.check_assuming(&mut ctx, q).0.is_sat();
            assert_eq!(
                session.check_assuming(&mut ctx, q).0.is_sat(),
                without,
                "{q:?}"
            );
            let mut under_act = q.to_vec();
            under_act.push(act);
            let with = with_reqs.check_assuming(&mut ctx, q).0.is_sat();
            assert_eq!(
                session.check_assuming(&mut ctx, &under_act).0.is_sat(),
                with,
                "{q:?} under act"
            );
            differ += usize::from(with != without);
        }
        assert!(differ > 0, "reqs must constrain some query");
        for t in [a, b, c, na, nb, nc, base, reqs] {
            assert_eq!(session.entails(&mut ctx, t), plain.entails(&mut ctx, t));
            assert_eq!(
                session.entails_assuming(&mut ctx, &[act], t),
                with_reqs.entails(&mut ctx, t)
            );
        }
    }

    /// `counter_model` answers like `entails_assuming` and, when the
    /// entailment fails, returns a model of base ∧ extra ∧ ¬b.
    #[test]
    fn counter_model_witnesses_a_failed_entailment() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let base = ctx.or2(a, b);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, base);
        let na = ctx.not(a);
        assert_eq!(session.counter_model(&mut ctx, &[na], b), Ok(None));
        let model = session
            .counter_model(&mut ctx, &[c], a)
            .unwrap()
            .expect("a ∨ b does not entail a");
        assert_eq!(model.eval_bool(&ctx, base), Some(true));
        assert_eq!(model.eval_bool(&ctx, c), Some(true));
        assert_eq!(model.eval_bool(&ctx, a), Some(false));
    }

    /// Cloning a warmed session — the warm-start behind the lifter's
    /// `LiftSessionStore` — yields an independent solver that starts from
    /// the original's encoded clause database and query count, answers
    /// like the original, and keeps assertions made after the clone local
    /// to the session they were made on.
    #[test]
    fn cloned_session_is_warm_and_independent() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let ab = ctx.and2(a, b);
        let mut session = SmtSession::new();
        session.assert(&mut ctx, ab);
        assert_eq!(session.entails(&mut ctx, a), Ok(true));

        let mut clone = session.clone();
        assert!(session.num_clauses() > 0);
        assert_eq!(
            clone.num_clauses(),
            session.num_clauses(),
            "the clone must start from the original's clause database"
        );
        assert_eq!(clone.queries(), session.queries());
        assert_eq!(clone.entails(&mut ctx, b), Ok(true));

        // Divergence stays local: constraining the clone must not leak
        // into the original.
        let nc = ctx.not(c);
        clone.assert(&mut ctx, nc);
        assert_eq!(clone.entails(&mut ctx, nc), Ok(true));
        assert_eq!(session.entails(&mut ctx, nc), Ok(false));
        assert_eq!(session.entails(&mut ctx, ab), Ok(true));
    }
}
