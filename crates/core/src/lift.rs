//! Lifting simplified constraints back into the specification language
//! (Figure 6, step 4).
//!
//! The paper frames this step as an open problem ("the specific methods for
//! efficiently searching the specification language space remain an open
//! question") and ships without it. This module implements a sound
//! enumerative lifter for the paper's fragment:
//!
//! * **Candidates** are forbidden-path requirements built from windows of
//!   the enumerated propagation paths that cross the router under question
//!   (`!(R1 -> P1)`, `!(P1 -> R1 -> R2 -> P2)`, …), plus localized versions
//!   of the global preference requirements whose constraints touch the
//!   router.
//! * A candidate is **kept** when it is *necessary* — implied by the seed
//!   specification (`defs ∧ reqs ⊨ candidate`) — and *non-trivial* — not
//!   already guaranteed by the frozen rest of the network
//!   (`defs ⊭ candidate`). Both checks run on the home-grown SAT solver.
//! * Kept candidates are ordered shortest-first and greedily deduplicated
//!   (a candidate already implied by the chosen set adds nothing); finally
//!   the chosen set is checked for **sufficiency** (`defs ∧ chosen ⊨ reqs`).
//!
//! Every candidate is judged against the *same* two assertion bases (`defs`
//! and `defs ∧ reqs`), so the search runs on one incremental [`SmtSession`]
//! per router that encodes `defs` once and `reqs` behind an activation
//! literal `act` (`act → reqs`). Necessity queries assume `act`; all other
//! queries leave it free, which makes them queries against `defs` alone.
//! Each candidate is an assumption query, and learned clauses carry over
//! between candidates. The candidates are judged serially, in order.
//!
//! Every SAT answer is a concrete forwarding state that refutes more than
//! the candidate it was found for. The lifter decodes and caches these
//! counter-models and evaluates each pending candidate against them first:
//! a cached model of `defs ∧ reqs ∧ ¬c` rejects `c` as unnecessary, and a
//! cached model of `defs ∧ ¬c` answers its non-triviality check, with no
//! query. Only candidates no cached model falsifies reach the solver.
//!
//! The result is a [`SubSpec`] in the same language as the global
//! specification — Figures 2, 4 and 5 of the paper fall out of this search
//! (see the workspace integration tests).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use netexpl_logic::budget::{Budget, Interrupt, InterruptReason};
use netexpl_logic::model::{Assignment, Value};
use netexpl_logic::session::SmtSession;
use netexpl_logic::term::{Ctx, TermId};
use netexpl_spec::{PathPattern, Requirement, Seg, Specification, SubSpec};
use netexpl_topology::{Prefix, RouterId, RouterKind, Topology};

use crate::seed::SeedSpec;

/// Options bounding the lifting search.
#[derive(Debug, Clone)]
pub struct LiftOptions {
    /// Maximum number of routers in a candidate forbidden window.
    pub max_window: usize,
    /// Cap on the number of candidate patterns examined.
    pub max_candidates: usize,
    /// Resource budget for the lifter's solver queries. Interruption is
    /// sound: the lifter stops checking further candidates and reports the
    /// interrupt in [`LiftResult::interrupt`]; everything already kept stays
    /// necessary.
    pub budget: Budget,
    /// Warm-session store for incremental re-explanation: each router's
    /// lift session is deposited here and reused (cloned, learned clauses
    /// and VSIDS activity intact) when the same router is lifted again
    /// under an identical configuration. Requires [`LiftOptions::session_key`].
    pub session_store: Option<Arc<LiftSessionStore>>,
    /// The exact configuration fingerprint scoping
    /// [`LiftOptions::session_store`] entries — reuse is only attempted
    /// when the whole network configuration is byte-identical to the one
    /// the session was deposited under (see the store's soundness note).
    pub session_key: Option<u64>,
}

impl Default for LiftOptions {
    fn default() -> Self {
        LiftOptions {
            max_window: 6,
            max_candidates: 256,
            budget: Budget::unlimited(),
            session_store: None,
            session_key: None,
        }
    }
}

/// A cross-run store of warm lifter sessions, one per router, the
/// session-reuse half of incremental re-explanation (`explain_delta`).
///
/// Entries are keyed by `(router, exact configuration fingerprint)` and
/// additionally validated against the seed's `defs`/`reqs` term ids at
/// lookup, so a clone is only handed out when the assertion base is
/// provably the one the session encodes. **Soundness contract:** a store
/// must only be consulted from (clones of) the term-arena lineage its
/// entries were deposited from — term ids are meaningless across unrelated
/// arenas. `netexpl serve` scopes one store per pooled session; the delta
/// engine threads one across runs sharing a patched [`EncodeCache`]'s base
/// context. Within that lineage, an identical configuration re-derives an
/// identical seed (the pipeline is deterministic), so matching ids imply
/// matching terms; anything else — an edited router, a different selector
/// — re-derives different ids and falls back to a fresh session, exactly
/// the "learned clauses carry over where the assertion base is unchanged"
/// rule.
///
/// Each entry also snapshots the depositing worker's [`Ctx`]. The session
/// internally references terms minted *during* candidate checking (lowered
/// forms in the bit-blaster memo, definition literals), which a later
/// borrower's arena has not re-minted yet — worker arenas are clones whose
/// growth is discarded after each run. A hit therefore fast-forwards the
/// borrower's context to the snapshot: the borrower's arena is a strict
/// prefix of it (identical derivation up to the consult point, checked),
/// so the replacement preserves every id the borrower already holds while
/// making every id the session references live again.
#[derive(Default)]
pub struct LiftSessionStore {
    entries: Mutex<HashMap<(RouterId, u64), StoredSession>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct StoredSession {
    defs: TermId,
    reqs: TermId,
    /// The depositing worker's full term arena: the session's memoized
    /// lowerings reference terms in it that exist in no other context.
    ctx: Ctx,
    session: LiftSession,
}

impl std::fmt::Debug for LiftSessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiftSessionStore")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl LiftSessionStore {
    /// An empty store, ready to share across runs.
    pub fn new() -> Arc<LiftSessionStore> {
        Arc::new(LiftSessionStore::default())
    }

    /// Number of stored sessions.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("session store poisoned").len()
    }

    /// True when nothing has been deposited.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Warm clones handed out so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell back to a fresh session.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drop every entry recorded under a fingerprint other than `fp` —
    /// called after a configuration edit so stale sessions never linger.
    pub fn retain_fingerprint(&self, fp: u64) {
        self.entries
            .lock()
            .expect("session store poisoned")
            .retain(|&(_, key_fp), _| key_fp == fp);
    }

    /// Clone out the stored session for `key` when its assertion base
    /// matches, fast-forwarding `ctx` to the deposit-time arena snapshot so
    /// every term the session references is live. The borrower's arena must
    /// be a prefix of the snapshot (same lineage, identical derivation up to
    /// the consult point); anything else misses and falls back to a fresh
    /// session.
    fn take_clone(
        &self,
        key: (RouterId, u64),
        defs: TermId,
        reqs: TermId,
        ctx: &mut Ctx,
    ) -> Option<LiftSession> {
        let entries = self.entries.lock().expect("session store poisoned");
        let stored = entries.get(&key)?;
        if stored.defs != defs || stored.reqs != reqs {
            return None;
        }
        let n = ctx.num_terms();
        if stored.ctx.num_terms() < n || stored.ctx.num_vars() < ctx.num_vars() {
            return None;
        }
        // Spot-check the prefix claim on the borrower's newest term: a
        // diverged lineage (contract violation) almost surely differs here,
        // and a miss is always safe.
        if n > 0 {
            let last = TermId((n - 1) as u32);
            if stored.ctx.node(last) != ctx.node(last) {
                return None;
            }
        }
        *ctx = stored.ctx.clone();
        Some(stored.session.clone())
    }

    /// Deposit (or refresh) the session for `key`, snapshotting the arena
    /// its internals point into.
    fn deposit(
        &self,
        key: (RouterId, u64),
        defs: TermId,
        reqs: TermId,
        ctx: &Ctx,
        session: LiftSession,
    ) {
        self.entries.lock().expect("session store poisoned").insert(
            key,
            StoredSession {
                defs,
                reqs,
                ctx: ctx.clone(),
                session,
            },
        );
    }
}

/// The lifting outcome.
#[derive(Debug)]
pub struct LiftResult {
    /// The lifted subspecification (empty = the router is unconstrained).
    pub subspec: SubSpec,
    /// Whether the chosen requirements are jointly *sufficient* for the
    /// seed's requirement constraints. When `false` the subspecification is
    /// a sound but incomplete summary (necessary conditions only) — the
    /// situation the paper describes as remaining future work.
    pub complete: bool,
    /// Number of candidates whose necessity was checked by the solver.
    pub candidates_checked: usize,
    /// Candidates the solver examined and rejected (trivial or
    /// unnecessary), in candidate order. Together with
    /// `subspec.requirements` this is the lifter's full verdict table —
    /// the budget-soundness suite compares it across budgets.
    pub rejected: Vec<Requirement>,
    /// For each subspecification entry (parallel to
    /// `subspec.requirements`), the global requirement blocks that force it
    /// — computed from solver unsat cores. Lets the operator trace every
    /// local obligation back to the intent that caused it.
    pub provenance: Vec<Vec<String>>,
    /// Set when the resource budget (or a fault injection) interrupted the
    /// search. The subspecification is still sound — every kept entry was
    /// verified necessary before the interrupt — but `complete` is `false`.
    pub interrupt: Option<Interrupt>,
}

/// The lifter's one solver session for a router. `defs` is asserted
/// outright and `reqs` behind the fresh activation literal `act`
/// (`act → reqs`). Necessity queries assume `act` and so decide against
/// `defs ∧ reqs`. Every other query (non-triviality, sufficiency,
/// provenance) leaves `act` free, and a model may then set it false, so
/// `defs ∧ (act → reqs) ∧ φ` is satisfiable exactly when `defs ∧ φ` is.
/// One encoding of `defs` serves both sides, and no query ever asserts
/// anything candidate-specific.
#[derive(Clone)]
struct LiftSession {
    smt: SmtSession,
    act: TermId,
}

impl LiftSession {
    fn new(
        ctx: &mut Ctx,
        router: RouterId,
        defs: TermId,
        reqs: TermId,
        options: &LiftOptions,
    ) -> LiftSession {
        let _span = netexpl_obs::Span::enter("lift.encode");
        // Warm path: a prior lift of this router under an identical
        // configuration deposited its session — clone it, learned clauses
        // and VSIDS activity intact, instead of re-encoding.
        if let (Some(store), Some(fp)) = (&options.session_store, options.session_key) {
            if let Some(mut warm) = store.take_clone((router, fp), defs, reqs, ctx) {
                warm.smt.set_budget(options.budget.clone());
                store.hits.fetch_add(1, Ordering::Relaxed);
                netexpl_obs::counter_add("lift.session_store.hits", 1);
                return warm;
            }
            store.misses.fetch_add(1, Ordering::Relaxed);
            netexpl_obs::counter_add("lift.session_store.misses", 1);
        }
        let act = ctx.bool_var("lift.act");
        let guarded = ctx.implies(act, reqs);
        let mut smt = SmtSession::new();
        smt.set_budget(options.budget.clone());
        smt.assert(ctx, defs);
        smt.assert(ctx, guarded);
        LiftSession { smt, act }
    }

    /// Attribute subsequent solver queries to the candidate `label`, so
    /// `session.query` spans name the lift template that issued them.
    fn set_origin(&mut self, label: &str) {
        self.smt.set_origin(format!("lift:{label}"));
    }

    /// Unsat-core indices into `req_groups` for `defs ∧ groups ∧ ¬cand`.
    fn provenance_core(
        &mut self,
        ctx: &mut Ctx,
        cand: TermId,
        req_groups: &[TermId],
    ) -> Vec<usize> {
        // ¬cand rides along as the last assumption; indices beyond the
        // requirement groups are its, not a block's.
        let neg = ctx.not(cand);
        let mut assumptions: Vec<TermId> = req_groups.to_vec();
        assumptions.push(neg);
        self.smt
            .check_assuming(ctx, &assumptions)
            .1
            .into_iter()
            .filter(|&i| i < req_groups.len())
            .collect()
    }
}

/// A candidate's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Already guaranteed by the frozen network: `defs ⊨ c`.
    Trivial,
    /// Not implied by the seed: `defs ∧ reqs ⊭ c`.
    Unnecessary,
    /// Non-trivial and (except for preferences) necessary.
    Kept,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Trivial => "trivial",
            Verdict::Unnecessary => "unnecessary",
            Verdict::Kept => "kept",
        }
    }
}

/// A SAT counter-model the lifter got back from its session: a concrete
/// forwarding state satisfying `defs` (and `reqs` too when `act` is true in
/// it). It refutes every later candidate it falsifies.
struct CounterModel {
    asg: Assignment,
    /// What falsifying a candidate proves: [`Refuted::Seed`] when `act` is
    /// true in the model, [`Refuted::Base`] otherwise.
    proves: Refuted,
    /// Per-term evaluation cache; candidates share most of their subterms.
    memo: HashMap<TermId, Option<Value>>,
}

impl CounterModel {
    /// Does this model falsify `c`? An unknown value (a variable the
    /// session had not encoded when the model was found) is not a refutation.
    fn falsifies(&mut self, ctx: &Ctx, c: TermId) -> bool {
        self.asg.eval_memo(ctx, c, &mut self.memo) == Some(Value::Bool(false))
    }
}

/// What cached counter-models prove about a candidate `c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refuted {
    /// No cached model falsifies `c`.
    Nothing,
    /// A model of `defs ∧ ¬c`: `c` is non-trivial.
    Base,
    /// A model of `defs ∧ reqs ∧ ¬c`: `c` is non-trivial and unnecessary.
    Seed,
}

/// The counter-models of one lift, most recently useful first.
#[derive(Default)]
struct ModelCache {
    models: Vec<CounterModel>,
}

impl ModelCache {
    /// Cache a fresh counter-model in front; returns what it proves about
    /// the candidate it was found for.
    fn add(&mut self, ctx: &Ctx, asg: Assignment, act: TermId) -> Refuted {
        let proves = if asg.eval_bool(ctx, act) == Some(true) {
            Refuted::Seed
        } else {
            Refuted::Base
        };
        let memo = HashMap::new();
        self.models.insert(0, CounterModel { asg, proves, memo });
        proves
    }

    /// The strongest refutation of `c` among the cached models, moving the
    /// model that gives it to the front. With `need_seed` false any
    /// falsifying model will do.
    fn refute(&mut self, ctx: &Ctx, c: TermId, need_seed: bool) -> Refuted {
        let mut found: Option<(usize, Refuted)> = None;
        for (i, model) in self.models.iter_mut().enumerate() {
            if !model.falsifies(ctx, c) {
                continue;
            }
            let refuted = model.proves;
            if found.is_none() || refuted == Refuted::Seed {
                found = Some((i, refuted));
            }
            if refuted == Refuted::Seed || !need_seed {
                break;
            }
        }
        let Some((i, refuted)) = found else {
            return Refuted::Nothing;
        };
        self.models[..=i].rotate_right(1);
        refuted
    }
}

/// The candidate judge: the router's session plus the counter-models its
/// queries have returned so far.
struct Checker {
    session: LiftSession,
    models: ModelCache,
    /// Solver queries answered from cached counter-models.
    model_hits: u64,
}

impl Checker {
    fn new(
        ctx: &mut Ctx,
        router: RouterId,
        defs: TermId,
        reqs: TermId,
        options: &LiftOptions,
    ) -> Checker {
        Checker {
            session: LiftSession::new(ctx, router, defs, reqs, options),
            models: ModelCache::default(),
            model_hits: 0,
        }
    }

    /// Judge one candidate: governance (forbidden windows only), then its
    /// verdict, under a `lift.candidate` span. `Ok(true)` keeps it;
    /// `Ok(false)` rejects it as trivial or unnecessary.
    fn judge(
        &mut self,
        ctx: &mut Ctx,
        budget: &Budget,
        cand: &Candidate,
    ) -> Result<bool, Interrupt> {
        if matches!(cand.kind, CandKind::Forbidden { .. }) {
            governance(budget)?;
        }
        let span = netexpl_obs::Span::enter("lift.candidate");
        if span.is_recording() {
            span.attr("template", cand.label.clone());
            span.attr("kind", cand.kind_str());
            self.session.set_origin(&cand.label);
        }
        // A localized preference is kept on non-triviality alone (its
        // constraints come *from* the seed).
        let necessity = !matches!(cand.kind, CandKind::Preference);
        let verdict = self.verdict(ctx, cand.term, necessity);
        span.attr(
            "outcome",
            verdict.as_ref().map_or("interrupted", |v| v.as_str()),
        );
        verdict.map(|v| v == Verdict::Kept)
    }

    /// Non-triviality (`defs ⊭ c`), then, when `necessity` is set,
    /// necessity (`defs ∧ reqs ⊨ c`). Each check first consults the cached
    /// counter-models and only queries the session when none refutes `c`;
    /// every SAT answer is cached for the candidates after this one.
    fn verdict(&mut self, ctx: &mut Ctx, c: TermId, necessity: bool) -> Result<Verdict, Interrupt> {
        let act = self.session.act;
        let mut refuted = self.models.refute(ctx, c, necessity);
        if refuted == Refuted::Nothing {
            match self.session.smt.counter_model(ctx, &[], c)? {
                None => return Ok(Verdict::Trivial),
                Some(asg) => refuted = self.models.add(ctx, asg, act),
            }
        } else {
            self.model_hits += 1;
        }
        if !necessity {
            return Ok(Verdict::Kept);
        }
        if refuted == Refuted::Seed {
            self.model_hits += 1;
            return Ok(Verdict::Unnecessary);
        }
        match self.session.smt.counter_model(ctx, &[act], c)? {
            None => Ok(Verdict::Kept),
            Some(asg) => {
                self.models.add(ctx, asg, act);
                Ok(Verdict::Unnecessary)
            }
        }
    }
}

/// A path a forbidden candidate would kill, keyed for coverage dedup.
type PathKey = (Prefix, Vec<RouterId>);

/// What shape of requirement a candidate is, with the data its greedy
/// dedup needs.
enum CandKind {
    /// A forbidden-path window; `matched` are the enumerated paths it
    /// kills. Redundancy is judged on *matched path sets* (a candidate
    /// constraint is exactly "all matched paths dead"), which keeps
    /// syntactically distinct but jointly needed statements — the paper's
    /// Figure 5 lists both transit paths even though, with the rest of the
    /// network frozen, their constraints coincide.
    Forbidden { matched: Vec<PathKey> },
    /// A localized preference chain. Kept on non-triviality alone (its
    /// constraints come *from* the seed, so necessity is definitional).
    Preference,
    /// A localized reachability obligation.
    Reachable,
}

/// One enumerated candidate: the requirement it would contribute, its
/// constraint term, and the judging policy its kind implies.
struct Candidate {
    req: Requirement,
    term: TermId,
    label: String,
    kind: CandKind,
}

impl Candidate {
    fn kind_str(&self) -> &'static str {
        match self.kind {
            CandKind::Forbidden { .. } => "forbidden",
            CandKind::Preference => "preference",
            CandKind::Reachable => "reachable",
        }
    }
}

/// Enumerate every candidate the lifter will judge, in order:
/// forbidden-path windows shortest-first (truncated to `max_candidates`),
/// then localized preferences, then localized reachability.
fn enumerate_candidates(
    ctx: &mut Ctx,
    topo: &Topology,
    spec: &Specification,
    seed: &SeedSpec,
    router: RouterId,
    options: &LiftOptions,
) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();

    // ---- forbidden-path candidates -----------------------------------------
    let mut patterns: Vec<Vec<RouterId>> = Vec::new();
    for infos in seed.encoded.paths.values() {
        for info in infos {
            let routers = &info.routers;
            let Some(pos) = routers.iter().position(|&r| r == router) else {
                continue;
            };
            for start in 0..=pos {
                for end in (pos + 1).max(start + 2)..=routers.len() {
                    if end - start > options.max_window {
                        continue;
                    }
                    let window = routers[start..end].to_vec();
                    if !patterns.contains(&window) {
                        patterns.push(window);
                    }
                }
            }
        }
    }
    // Shortest patterns first: prefer the most general statement (the
    // paper's Figure 2 `!(R1 -> P1)` over an origin-qualified variant).
    let enumerated = patterns.len();
    patterns.sort_by_key(|w| (w.len(), w.clone()));
    patterns.truncate(options.max_candidates);
    netexpl_obs::counter_add("lift.templates_enumerated", enumerated as u64);
    netexpl_obs::counter_add(
        "lift.templates_pruned",
        (enumerated - patterns.len()) as u64,
    );

    for window in &patterns {
        let names: Vec<&str> = window.iter().map(|&r| topo.name(r)).collect();
        let pattern = PathPattern::routers(&names);
        let label = format!("!({pattern})");
        // The candidate's own constraint: every enumerated path matching the
        // window must be dead — the same availability semantics the encoder
        // gives a global forbidden requirement.
        let mut dead_terms = Vec::new();
        let mut matched: Vec<PathKey> = Vec::new();
        for (prefix, infos) in &seed.encoded.paths {
            let dest_ok = |d: &str| spec.prefix_of(d) == Some(*prefix);
            for info in infos {
                if pattern.matches_route(topo, &info.routers, &dest_ok) {
                    dead_terms.push(info.alive);
                    matched.push((*prefix, info.routers.clone()));
                }
            }
        }
        let term = {
            let negs: Vec<TermId> = dead_terms.iter().map(|&a| ctx.not(a)).collect();
            ctx.and(&negs)
        };
        out.push(Candidate {
            req: Requirement::Forbidden(pattern),
            term,
            label,
            kind: CandKind::Forbidden { matched },
        });
    }

    // ---- localized preference candidates ------------------------------------
    for (idx, req) in spec.requirements().enumerate() {
        let Requirement::Preference { chain } = req else {
            continue;
        };
        let Some(local) = localize_preference(topo, router, chain) else {
            continue;
        };
        // This requirement's own constraint conjunction.
        let own: Vec<TermId> = seed
            .encoded
            .reqs
            .iter()
            .zip(&seed.encoded.req_origins)
            .filter(|&(_, &o)| o == idx)
            .map(|(&t, _)| t)
            .collect();
        let term = ctx.and(&own);
        let label = local.to_string();
        out.push(Candidate {
            req: local,
            term,
            label,
            kind: CandKind::Preference,
        });
    }

    // ---- localized reachability candidates -----------------------------------
    // For each declared destination whose prefix has a selection fixpoint
    // (i.e. some requirement constrained it), "x ~> D" for the router and
    // its neighbors: the local obligation to keep a destination reachable.
    let mut reach_holders: Vec<RouterId> = vec![router];
    reach_holders.extend(topo.neighbors(router).iter().copied());
    for (dname, prefix) in &spec.destinations {
        let Some(fam) = seed.encoded.nominal_sel.get(prefix) else {
            continue;
        };
        let infos = &seed.encoded.paths[prefix];
        for &x in &reach_holders {
            let sels: Vec<TermId> = infos
                .iter()
                .enumerate()
                .filter(|(_, i)| i.holder() == x)
                .filter_map(|(k, _)| fam[k])
                .collect();
            if sels.is_empty() {
                continue;
            }
            let term = ctx.or(&sels);
            out.push(Candidate {
                req: Requirement::Reachable {
                    src: topo.name(x).to_string(),
                    dst: dname.clone(),
                },
                term,
                label: format!("{} ~> {}", topo.name(x), dname),
                kind: CandKind::Reachable,
            });
        }
    }

    out
}

/// What the candidate loop produced, before sufficiency and provenance.
struct CheckOutcome {
    kept: Vec<(Requirement, TermId)>,
    rejected: Vec<Requirement>,
    checked: usize,
    interrupt: Option<Interrupt>,
}

/// The candidate loop: judge in order, greedily dedup forbidden windows on
/// matched-path coverage, stop at the first interrupt.
fn check_candidates(
    ctx: &mut Ctx,
    budget: &Budget,
    checker: &mut Checker,
    candidates: &[Candidate],
) -> CheckOutcome {
    let mut covered: HashSet<PathKey> = HashSet::new();
    let mut kept: Vec<(Requirement, TermId)> = Vec::new();
    let mut rejected: Vec<Requirement> = Vec::new();
    let mut checked = 0usize;
    let mut interrupt: Option<Interrupt> = None;
    for cand in candidates {
        // Redundant: everything it would forbid is already forbidden by a
        // chosen (shorter) candidate. Filtered before it counts as checked
        // — and before its queries run at all.
        if let CandKind::Forbidden { matched } = &cand.kind {
            if let Err(i) = governance(budget) {
                interrupt = Some(i);
                break;
            }
            if matched.iter().all(|m| covered.contains(m)) {
                netexpl_obs::counter_add("lift.templates_pruned", 1);
                let span = netexpl_obs::Span::enter("lift.candidate");
                if span.is_recording() {
                    span.attr("template", cand.label.clone());
                    span.attr("kind", cand.kind_str());
                    span.attr("outcome", "filtered");
                }
                continue;
            }
        }
        checked += 1;
        match checker.judge(ctx, budget, cand) {
            Ok(false) => rejected.push(cand.req.clone()),
            Ok(true) => {
                if let CandKind::Forbidden { matched } = &cand.kind {
                    covered.extend(matched.iter().cloned());
                }
                kept.push((cand.req.clone(), cand.term));
            }
            Err(i) => {
                interrupt = Some(i);
                break;
            }
        }
    }
    CheckOutcome {
        kept,
        rejected,
        checked,
        interrupt,
    }
}

/// Lift the seed specification of `router` into the specification language.
pub fn lift(
    ctx: &mut Ctx,
    topo: &Topology,
    spec: &Specification,
    seed: &SeedSpec,
    router: RouterId,
    options: LiftOptions,
) -> LiftResult {
    let defs = seed.def_conjunction;
    let reqs = seed.req_conjunction;
    let budget = options.budget.clone();
    let candidates = {
        let _span = netexpl_obs::Span::enter("lift.enumerate");
        enumerate_candidates(ctx, topo, spec, seed, router, &options)
    };
    let mut checker = Checker::new(ctx, router, defs, reqs, &options);
    let CheckOutcome {
        kept,
        rejected,
        checked,
        mut interrupt,
    } = check_candidates(ctx, &budget, &mut checker, &candidates);
    let Checker {
        mut session,
        model_hits,
        ..
    } = checker;

    // ---- sufficiency ---------------------------------------------------------
    // An interrupted search cannot claim sufficiency: candidates it never
    // examined might have been required. `act` stays free: defs ∧ chosen ⊨ reqs.
    let chosen_terms: Vec<TermId> = kept.iter().map(|(_, t)| *t).collect();
    let complete = if interrupt.is_some() {
        false
    } else {
        let _span = netexpl_obs::Span::enter("lift.sufficiency");
        session.set_origin("sufficiency");
        match session.smt.entails_assuming(ctx, &chosen_terms, reqs) {
            Ok(v) => v,
            Err(i) => {
                interrupt = Some(i);
                false
            }
        }
    };

    // ---- provenance ------------------------------------------------------------
    // Trace each chosen entry to the global requirement blocks that force
    // it: assume each requirement's constraint conjunction retractably and
    // take the unsat core of defs ∧ assumptions ∧ ¬entry.
    let span = netexpl_obs::Span::enter("lift.provenance");
    let block_names: Vec<String> = spec
        .blocks
        .iter()
        .flat_map(|(name, rs)| std::iter::repeat_n(name.clone(), rs.len()))
        .collect();
    let n_reqs = spec.requirements().count();
    let req_groups: Vec<TermId> = (0..n_reqs)
        .map(|idx| {
            let own: Vec<TermId> = seed
                .encoded
                .reqs
                .iter()
                .zip(&seed.encoded.req_origins)
                .filter(|&(_, &o)| o == idx)
                .map(|(&t, _)| t)
                .collect();
            ctx.and(&own)
        })
        .collect();
    let mut provenance: Vec<Vec<String>> = Vec::with_capacity(kept.len());
    session.set_origin("provenance");
    for (_, cand) in &kept {
        if interrupt.is_some() {
            // Provenance is decoration; don't spend an exhausted budget on
            // it. Entries without traced blocks simply render without the
            // "required by" line.
            provenance.push(Vec::new());
            continue;
        }
        let core = session.provenance_core(ctx, *cand, &req_groups);
        let mut blocks: Vec<String> = core
            .iter()
            .filter_map(|&i| block_names.get(i).cloned())
            .collect();
        blocks.sort();
        blocks.dedup();
        provenance.push(blocks);
    }

    drop(span);

    netexpl_obs::counter_add("lift.candidate_checks", checked as u64);
    netexpl_obs::counter_add("lift.model_hits", model_hits);
    // Deposit the warm session for the next run over this configuration.
    if let (Some(store), Some(fp)) = (&options.session_store, options.session_key) {
        store.deposit((router, fp), defs, reqs, ctx, session);
    }
    let requirements: Vec<Requirement> = kept.into_iter().map(|(r, _)| r).collect();
    LiftResult {
        subspec: SubSpec {
            router: topo.name(router).to_string(),
            requirements,
        },
        complete,
        candidates_checked: checked,
        rejected,
        provenance,
        interrupt,
    }
}

/// Per-candidate governance: the fault-injection site plus the coarse
/// deadline/cancellation check. Solver-side caps (conflicts, decisions,
/// propagations) are enforced inside the budgeted entailment queries.
fn governance(budget: &Budget) -> Result<(), Interrupt> {
    if netexpl_faults::triggered(netexpl_faults::sites::LIFT_CANDIDATE) {
        let i = Interrupt::new(InterruptReason::Fault, "lift.candidate");
        i.record();
        return Err(i);
    }
    budget.check_coarse("lift.candidate").inspect_err(|i| {
        i.record();
    })
}

/// Truncate a global preference requirement to start at `router`, as in the
/// paper's Figure 4 (`C -> R3 -> R1 -> …` becomes `R3 -> R1 -> …` when
/// explaining R3). Returns `None` when the router is not on every chain
/// member (there is no local decision to express otherwise).
fn localize_preference(
    topo: &Topology,
    router: RouterId,
    chain: &[PathPattern],
) -> Option<Requirement> {
    if topo.router(router).kind != RouterKind::Internal {
        return None;
    }
    let name = topo.name(router);
    let cut = |p: &PathPattern| -> Option<PathPattern> {
        let pos = p
            .segs
            .iter()
            .position(|s| matches!(s, Seg::Router(n) if n == name))?;
        Some(PathPattern::new(p.segs[pos..].to_vec()))
    };
    let localized: Option<Vec<PathPattern>> = chain.iter().map(cut).collect();
    Some(Requirement::Preference { chain: localized? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netexpl_spec::parse;
    use netexpl_topology::builders::paper_topology;

    #[test]
    fn localize_preference_truncates_at_router() {
        let (topo, h) = paper_topology();
        let spec = parse(
            "dest D1 = 200.7.0.0/16\n\
             Req2 {\n\
               (Customer -> R3 -> R1 -> P1 -> ... -> D1)\n\
               >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)\n\
             }",
        )
        .unwrap();
        let req = spec.requirements().next().unwrap();
        let Requirement::Preference { chain } = req else {
            panic!()
        };
        let local = localize_preference(&topo, h.r3, chain).unwrap();
        let Requirement::Preference { chain: lc } = &local else {
            panic!()
        };
        assert_eq!(lc[0].to_string(), "R3 -> R1 -> P1 -> ... -> D1");
        assert_eq!(lc[1].to_string(), "R3 -> R2 -> P2 -> ... -> D1");
        // A router on only one of the two paths localizes to nothing —
        // there is no local decision to express.
        assert!(localize_preference(&topo, h.r1, chain).is_none());
        // External routers never get local preferences.
        assert!(localize_preference(&topo, h.p1, chain).is_none());
    }
}

#[cfg(test)]
mod option_tests {
    use super::*;
    use crate::seed::seed_spec;
    use crate::symbolize::{symbolize, Selector};
    use netexpl_bgp::{Action, NetworkConfig, RouteMap, RouteMapEntry};
    use netexpl_logic::term::Ctx;
    use netexpl_synth::encode::EncodeOptions;
    use netexpl_synth::sketch::HoleFactory;
    use netexpl_synth::vocab::Vocabulary;
    use netexpl_topology::builders::paper_topology;
    use netexpl_topology::Prefix;

    #[test]
    fn window_and_candidate_caps_bound_the_search() {
        let (topo, h) = paper_topology();
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let mut net = NetworkConfig::new();
        net.originate(h.p2, d2);
        net.router_mut(h.r1).set_export(
            h.p1,
            RouteMap::new(
                "R1_to_P1",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Deny,
                    matches: vec![],
                    sets: vec![],
                }],
            ),
        );
        let spec = netexpl_spec::parse("Req1 { !(P2 -> ... -> P1) }").unwrap();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let (sym, _) = symbolize(&mut ctx, &factory, &topo, &net, h.r1, &Selector::Router);
        let seed = seed_spec(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sym,
            &spec,
            EncodeOptions::default(),
        )
        .unwrap();

        // With generous bounds the lift is exact.
        let full = lift(&mut ctx, &topo, &spec, &seed, h.r1, LiftOptions::default());
        assert!(full.complete);
        assert!(!full.subspec.is_empty());

        // A candidate cap of 1 examines at most one pattern (the necessity
        // check may reject it, leaving an incomplete but sound result).
        let capped = lift(
            &mut ctx,
            &topo,
            &spec,
            &seed,
            h.r1,
            LiftOptions {
                max_window: 2,
                max_candidates: 1,
                ..Default::default()
            },
        );
        assert!(
            capped.candidates_checked <= 2,
            "{}",
            capped.candidates_checked
        );
        // Window cap of 2 only permits length-2 windows like !(R1 -> P1).
        for req in &capped.subspec.requirements {
            if let Requirement::Forbidden(p) = req {
                assert!(p.segs.len() <= 2, "{p}");
            }
        }
    }

    fn scenario_seed() -> (
        Ctx,
        netexpl_topology::Topology,
        Specification,
        SeedSpec,
        netexpl_topology::RouterId,
    ) {
        let (topo, h) = paper_topology();
        let d2: Prefix = "201.0.0.0/16".parse().unwrap();
        let mut net = NetworkConfig::new();
        net.originate(h.p2, d2);
        net.router_mut(h.r1).set_export(
            h.p1,
            RouteMap::new(
                "R1_to_P1",
                vec![RouteMapEntry {
                    seq: 10,
                    action: Action::Deny,
                    matches: vec![],
                    sets: vec![],
                }],
            ),
        );
        let spec = netexpl_spec::parse("Req1 { !(P2 -> ... -> P1) }").unwrap();
        let vocab = Vocabulary::new(&topo, vec![], vec![100], net.prefixes());
        let mut ctx = Ctx::new();
        let sorts = vocab.sorts(&mut ctx);
        let factory = HoleFactory::new(&vocab, sorts);
        let (sym, _) = symbolize(&mut ctx, &factory, &topo, &net, h.r1, &Selector::Router);
        let seed = seed_spec(
            &mut ctx,
            &topo,
            &vocab,
            sorts,
            &sym,
            &spec,
            EncodeOptions::default(),
        )
        .unwrap();
        (ctx, topo, spec, seed, h.r1)
    }

    #[test]
    fn expired_deadline_interrupts_but_stays_sound() {
        use netexpl_logic::budget::{Budget, InterruptReason};
        let (mut ctx, topo, spec, seed, r1) = scenario_seed();
        let result = lift(
            &mut ctx,
            &topo,
            &spec,
            &seed,
            r1,
            LiftOptions {
                budget: Budget::unlimited().deadline_in(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        let i = result
            .interrupt
            .expect("an expired deadline must interrupt");
        assert_eq!(i.reason, InterruptReason::Deadline);
        assert!(!result.complete, "an interrupted lift cannot be complete");
        // Kept entries (if any squeaked in before the check) are still
        // individually necessary, so the subspec — possibly empty — is sound.
    }

    #[test]
    fn fault_injection_interrupts_lift() {
        use netexpl_logic::budget::InterruptReason;
        let (mut ctx, topo, spec, seed, r1) = scenario_seed();
        let _guard = netexpl_faults::arm(netexpl_faults::sites::LIFT_CANDIDATE);
        let result = lift(&mut ctx, &topo, &spec, &seed, r1, LiftOptions::default());
        let i = result.interrupt.expect("armed fault must interrupt");
        assert_eq!(i.reason, InterruptReason::Fault);
        assert!(!result.complete);
        assert!(result.subspec.is_empty(), "fault fires before any check");
    }
}

#[cfg(test)]
mod judge_tests {
    use super::*;
    use crate::problem::{parse_problem, synthesize_problem, topology_by_name};
    use crate::seed::seed_spec;
    use crate::symbolize::{symbolize, Dir, Selector};
    use netexpl_logic::solver::entails;
    use netexpl_synth::encode::EncodeOptions;
    use netexpl_synth::sketch::HoleFactory;

    /// Scenario 1 of the paper (no transit) plus customer reachability.
    const NO_TRANSIT: &str = "\
// @originate P1 200.7.0.0/16
// @originate P2 201.0.0.0/16
// @originate Customer 123.0.1.0/20
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 {
  !(P1 -> ... -> P2)
  !(P2 -> ... -> P1)
}
Req2 {
  Customer ~> D1
  Customer ~> D2
}
";

    /// Scenarios 2 and 3 of the paper: no transit, the customer's egress
    /// preference and reachability, over one destination at both providers.
    const PREFERENCE: &str = "\
// @originate P1 200.7.0.0/16
// @originate P2 200.7.0.0/16
// @originate Customer 123.0.1.0/20
dest D1 = 200.7.0.0/16
Req1 {
  !(P1 -> ... -> P2)
  !(P2 -> ... -> P1)
}
Req2 {
  (Customer -> R3 -> R1 -> P1 -> ... -> D1)
  >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)
}
Req3 {
  Customer ~> D1
}
";

    /// The ring workload of the benchmark.
    const RING: &str = "\
// @originate Pa 200.7.0.0/16
// @originate Pb 201.0.0.0/16
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 {
  !(Pa -> ... -> Pb)
  !(Pb -> ... -> Pa)
}
Req2 {
  R0 ~> D2
}
";

    /// Every verdict the session-and-cache judge gives equals the one two
    /// one-shot solver entailments give (`defs ⊨ c` for triviality,
    /// `defs ∧ reqs ⊨ c` for necessity), for every enumerated candidate,
    /// judged in enumeration order with no dedup filtering. Every cached
    /// counter-model satisfies `defs`, and `reqs` too when `act` is true in
    /// it. The fixtures are the paper's Figure 2 (R1's export to P1 under
    /// no transit), Figure 4 (R3's choice between R1 and R2 under the
    /// egress preference) and a ring router; a one-shot query re-encodes
    /// `defs`, which bounds how many fit in a unit test.
    #[test]
    fn verdicts_match_one_shot_entailments() {
        let fixtures = [
            ("paper", NO_TRANSIT, "R1", Some(("P1", Dir::Export))),
            ("paper", PREFERENCE, "R3", Some(("R1", Dir::Import))),
            ("ring:4", RING, "R0", None),
        ];
        let mut model_hits = 0;
        let mut judged = 0;
        for (topology, text, router, session) in fixtures {
            let topo = topology_by_name(topology).unwrap();
            let problem = parse_problem(&topo, topology, text).unwrap();
            let mut ctx = Ctx::new();
            let sorts = problem.vocab.sorts(&mut ctx);
            let config = synthesize_problem(&topo, &problem, &mut ctx, sorts, Budget::unlimited())
                .unwrap()
                .config;
            let factory = HoleFactory::new(&problem.vocab, sorts);
            let router = topo.router_by_name(router).unwrap();
            let selector = match session {
                Some((neighbor, dir)) => Selector::Session {
                    neighbor: topo.router_by_name(neighbor).unwrap(),
                    dir,
                },
                None => Selector::Router,
            };
            let (sym, _) = symbolize(&mut ctx, &factory, &topo, &config, router, &selector);
            let seed = seed_spec(
                &mut ctx,
                &topo,
                &problem.vocab,
                sorts,
                &sym,
                &problem.spec,
                EncodeOptions::default(),
            )
            .unwrap();
            let (defs, reqs) = (seed.def_conjunction, seed.req_conjunction);
            let options = LiftOptions::default();
            let candidates =
                enumerate_candidates(&mut ctx, &topo, &problem.spec, &seed, router, &options);
            let mut checker = Checker::new(&mut ctx, router, defs, reqs, &options);
            let defs_and_reqs = ctx.and2(defs, reqs);
            for cand in &candidates {
                let necessity = !matches!(cand.kind, CandKind::Preference);
                let c = cand.term;
                // The verdict the two entailments give, asking only what
                // tells it apart: `defs ∧ reqs ⊭ c` already implies
                // `defs ⊭ c`, so an unnecessary verdict needs one query.
                let agrees = match checker.verdict(&mut ctx, c, necessity).unwrap() {
                    Verdict::Trivial => entails(&mut ctx, defs, c),
                    Verdict::Unnecessary => necessity && !entails(&mut ctx, defs_and_reqs, c),
                    Verdict::Kept => {
                        !entails(&mut ctx, defs, c)
                            && (!necessity || entails(&mut ctx, defs_and_reqs, c))
                    }
                };
                assert!(agrees, "{topology} {}: {}", topo.name(router), cand.label);
                judged += 1;
            }
            for model in &checker.models.models {
                assert_eq!(model.asg.eval_bool(&ctx, defs), Some(true));
                if model.proves == Refuted::Seed {
                    assert_eq!(model.asg.eval_bool(&ctx, reqs), Some(true));
                }
            }
            model_hits += checker.model_hits;
        }
        assert!(judged > 100, "only {judged} candidates judged");
        assert!(
            model_hits > 0,
            "no verdict came from a cached counter-model"
        );
    }
}
