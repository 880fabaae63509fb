//! Tseitin conversion from boolean terms to CNF.
//!
//! Input terms must mention only boolean variables (run
//! [`crate::bitblast::BitBlaster::lower`] first for theory atoms). Each
//! compound subterm is assigned a definition literal; the output is
//! equisatisfiable with the input and linear in its DAG size.

use std::collections::HashMap;

use crate::sat::Lit;
use crate::term::{Ctx, TermId, TermNode, VarId};

/// The result of CNF conversion.
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    /// Clauses over SAT variable indices.
    pub clauses: Vec<Vec<Lit>>,
    /// Total number of SAT variables (inputs + Tseitin definitions).
    pub num_vars: usize,
    /// SAT variable index of each term-level boolean variable that occurs.
    pub var_map: HashMap<VarId, usize>,
}

impl Cnf {
    /// The SAT variable for a term-level variable, if it occurs.
    pub fn sat_var(&self, v: VarId) -> Option<usize> {
        self.var_map.get(&v).copied()
    }
}

/// A literal during encoding: either a constant or a real literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ELit {
    Const(bool),
    Lit(Lit),
}

impl ELit {
    fn negated(self) -> ELit {
        match self {
            ELit::Const(b) => ELit::Const(!b),
            ELit::Lit(l) => ELit::Lit(l.negated()),
        }
    }
}

/// Incremental Tseitin encoder. Multiple roots can be encoded into the same
/// CNF (sharing definitions), then each asserted or used as an assumption.
#[derive(Debug, Default, Clone)]
pub struct CnfBuilder {
    cnf: Cnf,
    memo: HashMap<TermId, ELit>,
}

impl CnfBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode `t` and assert it (add its definition literal as a unit
    /// clause). Returns `false` if `t` is the constant `false`.
    pub fn assert_term(&mut self, ctx: &Ctx, t: TermId) -> bool {
        match self.encode(ctx, t) {
            ELit::Const(b) => b,
            ELit::Lit(l) => {
                self.cnf.clauses.push(vec![l]);
                true
            }
        }
    }

    /// Encode `t` without asserting; returns its definition literal, or
    /// `None` if it folded to a constant (the bool tells which).
    pub fn define_term(&mut self, ctx: &Ctx, t: TermId) -> Result<Lit, bool> {
        match self.encode(ctx, t) {
            ELit::Const(b) => Err(b),
            ELit::Lit(l) => Ok(l),
        }
    }

    /// Finish and return the CNF.
    pub fn finish(self) -> Cnf {
        self.cnf
    }

    /// Total SAT variables allocated so far (inputs + Tseitin definitions).
    pub fn num_vars(&self) -> usize {
        self.cnf.num_vars
    }

    /// The SAT variable for a term-level variable, if it occurs.
    pub fn sat_var(&self, v: VarId) -> Option<usize> {
        self.cnf.sat_var(v)
    }

    /// The term-variable → SAT-variable map built so far.
    pub fn var_map(&self) -> &HashMap<VarId, usize> {
        &self.cnf.var_map
    }

    /// Move out the clauses emitted since the last drain. An incremental
    /// session calls this after each
    /// [`CnfBuilder::assert_term`]/[`CnfBuilder::define_term`] and feeds the
    /// delta into its long-lived solver, which then holds the only copy;
    /// [`CnfBuilder::finish`] returns only clauses not yet drained.
    pub fn take_new_clauses(&mut self) -> Vec<Vec<Lit>> {
        std::mem::take(&mut self.cnf.clauses)
    }

    fn fresh(&mut self) -> Lit {
        let v = self.cnf.num_vars;
        self.cnf.num_vars += 1;
        Lit::pos(v)
    }

    fn input_var(&mut self, v: VarId) -> Lit {
        if let Some(&sv) = self.cnf.var_map.get(&v) {
            return Lit::pos(sv);
        }
        let l = self.fresh();
        self.cnf.var_map.insert(v, l.var());
        l
    }

    fn encode(&mut self, ctx: &Ctx, t: TermId) -> ELit {
        if let Some(&e) = self.memo.get(&t) {
            return e;
        }
        let result = match ctx.node(t).clone() {
            TermNode::True => ELit::Const(true),
            TermNode::False => ELit::Const(false),
            TermNode::BoolVar(v) => ELit::Lit(self.input_var(v)),
            TermNode::Not(a) => self.encode(ctx, a).negated(),
            TermNode::And(cs) => {
                let lits: Vec<ELit> = cs.iter().map(|&c| self.encode(ctx, c)).collect();
                self.encode_and(&lits)
            }
            TermNode::Or(cs) => {
                let lits: Vec<ELit> = cs.iter().map(|&c| self.encode(ctx, c).negated()).collect();
                self.encode_and(&lits).negated()
            }
            TermNode::Implies(a, b) => {
                // a → b ≡ ¬(a ∧ ¬b)
                let ea = self.encode(ctx, a);
                let eb = self.encode(ctx, b).negated();
                self.encode_and(&[ea, eb]).negated()
            }
            TermNode::Iff(a, b) => {
                let ea = self.encode(ctx, a);
                let eb = self.encode(ctx, b);
                self.encode_iff(ea, eb)
            }
            TermNode::Ite(c, a, b) => {
                // ite(c,a,b) ≡ (c→a) ∧ (¬c→b) ≡ ¬(c∧¬a) ∧ ¬(¬c∧b... )
                let ec = self.encode(ctx, c);
                let ea = self.encode(ctx, a);
                let eb = self.encode(ctx, b);
                let then_bad = self.encode_and(&[ec, ea.negated()]); // c ∧ ¬a
                let else_bad = self.encode_and(&[ec.negated(), eb.negated()]); // ¬c ∧ ¬b
                self.encode_and(&[then_bad.negated(), else_bad.negated()])
            }
            TermNode::EnumVar(_)
            | TermNode::EnumConst(..)
            | TermNode::IntVar(_)
            | TermNode::IntConst(_)
            | TermNode::Eq(..)
            | TermNode::Le(..)
            | TermNode::Lt(..) => {
                panic!("CNF conversion requires a bit-blasted (pure boolean) term")
            }
        };
        self.memo.insert(t, result);
        result
    }

    /// Tseitin definition for a conjunction of already-encoded literals.
    fn encode_and(&mut self, lits: &[ELit]) -> ELit {
        let mut real: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match l {
                ELit::Const(false) => return ELit::Const(false),
                ELit::Const(true) => {}
                ELit::Lit(l) => {
                    if real.contains(&l.negated()) {
                        return ELit::Const(false);
                    }
                    if !real.contains(&l) {
                        real.push(l);
                    }
                }
            }
        }
        match real.len() {
            0 => ELit::Const(true),
            1 => ELit::Lit(real[0]),
            _ => {
                let d = self.fresh();
                // d → each lit
                for &l in &real {
                    self.cnf.clauses.push(vec![d.negated(), l]);
                }
                // all lits → d
                let mut big: Vec<Lit> = real.iter().map(|l| l.negated()).collect();
                big.push(d);
                self.cnf.clauses.push(big);
                ELit::Lit(d)
            }
        }
    }

    fn encode_iff(&mut self, a: ELit, b: ELit) -> ELit {
        match (a, b) {
            (ELit::Const(x), ELit::Const(y)) => ELit::Const(x == y),
            (ELit::Const(true), l) | (l, ELit::Const(true)) => l,
            (ELit::Const(false), l) | (l, ELit::Const(false)) => l.negated(),
            (ELit::Lit(la), ELit::Lit(lb)) => {
                if la == lb {
                    return ELit::Const(true);
                }
                if la == lb.negated() {
                    return ELit::Const(false);
                }
                let d = self.fresh();
                self.cnf.clauses.push(vec![d.negated(), la.negated(), lb]);
                self.cnf.clauses.push(vec![d.negated(), la, lb.negated()]);
                self.cnf.clauses.push(vec![d, la, lb]);
                self.cnf.clauses.push(vec![d, la.negated(), lb.negated()]);
                ELit::Lit(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Assignment, Value};
    use crate::sat::{SatResult, SatSolver};

    fn solve_term(ctx: &Ctx, t: TermId) -> Option<Assignment> {
        let mut b = CnfBuilder::new();
        if !b.assert_term(ctx, t) {
            return None;
        }
        let cnf = b.finish();
        let mut s = SatSolver::new();
        for _ in 0..cnf.num_vars {
            s.new_var();
        }
        for c in &cnf.clauses {
            if !s.add_clause(c) {
                return None;
            }
        }
        match s.solve() {
            SatResult::Sat(m) => {
                let mut asg = Assignment::new();
                for (&tv, &sv) in &cnf.var_map {
                    asg.set(tv, Value::Bool(m[sv]));
                }
                Some(asg)
            }
            SatResult::Unsat | SatResult::Unknown(_) => None,
        }
    }

    #[test]
    fn sat_formula_has_satisfying_assignment() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let nb = ctx.not(b);
        let f = ctx.and2(a, nb);
        let asg = solve_term(&ctx, f).expect("sat");
        assert_eq!(asg.eval_bool(&ctx, f), Some(true));
    }

    #[test]
    fn unsat_formula_detected() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let na = ctx.not(a);
        let f = ctx.and2(a, na);
        assert!(solve_term(&ctx, f).is_none());
    }

    #[test]
    fn constants_fold_without_clauses() {
        let mut ctx = Ctx::new();
        let t = ctx.mk_true();
        let mut b = CnfBuilder::new();
        assert!(b.assert_term(&ctx, t));
        assert!(b.finish().clauses.is_empty());

        let f = ctx.mk_false();
        let mut b2 = CnfBuilder::new();
        assert!(!b2.assert_term(&ctx, f));
    }

    #[test]
    fn iff_and_ite_encode_correctly() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let c = ctx.bool_var("c");
        let iff = ctx.iff(a, b);
        let ite = ctx.ite(c, iff, a);
        // Assert and check the model actually satisfies the original term.
        let asg = solve_term(&ctx, ite).expect("sat");
        assert_eq!(asg.eval_bool(&ctx, ite), Some(true));
        // And the negation is also satisfiable (contingent formula).
        let neg = ctx.not(ite);
        let asg2 = solve_term(&ctx, neg).expect("sat");
        assert_eq!(asg2.eval_bool(&ctx, neg), Some(true));
    }

    #[test]
    fn shared_subterms_define_once() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let ab = ctx.and2(a, b);
        let f = ctx.or2(ab, ab);
        let mut builder = CnfBuilder::new();
        builder.assert_term(&ctx, f);
        let cnf = builder.finish();
        // 2 inputs + 1 definition for ab (or of identical lits folds).
        assert_eq!(cnf.num_vars, 3, "clauses: {:?}", cnf.clauses);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        // Random formula as nested ops over 4 vars; check equisatisfiability
        // directions: (1) if CNF sat, decoded model satisfies the original;
        // (2) if original has a model (brute force), CNF is sat.
        #[derive(Debug, Clone)]
        enum F {
            Var(u8),
            Not(Box<F>),
            And(Box<F>, Box<F>),
            Or(Box<F>, Box<F>),
            Iff(Box<F>, Box<F>),
            Ite(Box<F>, Box<F>, Box<F>),
        }

        fn arb() -> impl Strategy<Value = F> {
            let leaf = (0u8..4).prop_map(F::Var);
            leaf.prop_recursive(4, 32, 3, |inner| {
                prop_oneof![
                    inner.clone().prop_map(|f| F::Not(Box::new(f))),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(a.into(), b.into())),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Or(a.into(), b.into())),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Iff(a.into(), b.into())),
                    (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| F::Ite(
                        a.into(),
                        b.into(),
                        c.into()
                    )),
                ]
            })
        }

        fn build(ctx: &mut Ctx, vars: &[TermId], f: &F) -> TermId {
            match f {
                F::Var(i) => vars[*i as usize % vars.len()],
                F::Not(a) => {
                    let a = build(ctx, vars, a);
                    ctx.not(a)
                }
                F::And(a, b) => {
                    let (a, b) = (build(ctx, vars, a), build(ctx, vars, b));
                    ctx.and2(a, b)
                }
                F::Or(a, b) => {
                    let (a, b) = (build(ctx, vars, a), build(ctx, vars, b));
                    ctx.or2(a, b)
                }
                F::Iff(a, b) => {
                    let (a, b) = (build(ctx, vars, a), build(ctx, vars, b));
                    ctx.iff(a, b)
                }
                F::Ite(a, b, c) => {
                    let (a, b, c) = (
                        build(ctx, vars, a),
                        build(ctx, vars, b),
                        build(ctx, vars, c),
                    );
                    ctx.ite(a, b, c)
                }
            }
        }

        proptest! {
            #[test]
            fn cnf_is_equisatisfiable(f in arb()) {
                let mut ctx = Ctx::new();
                let vars: Vec<TermId> =
                    (0..4).map(|i| ctx.bool_var(&format!("v{i}"))).collect();
                let t = build(&mut ctx, &vars, &f);

                // Brute-force satisfiability of the original.
                let fv = ctx.free_vars(t);
                let mut bf_sat = false;
                Assignment::for_all_assignments(&ctx, &fv, 100, |asg| {
                    if asg.eval_bool(&ctx, t) == Some(true) {
                        bf_sat = true;
                    }
                });

                let cnf_model = solve_term(&ctx, t);
                prop_assert_eq!(bf_sat, cnf_model.is_some());
                if let Some(m) = cnf_model {
                    prop_assert_eq!(m.eval_bool(&ctx, t), Some(true));
                }
            }
        }
    }
}
