//! Assignments and a reference evaluator for terms.
//!
//! An [`Assignment`] maps variables to concrete [`Value`]s. The evaluator is
//! the semantic ground truth for the whole crate: the simplifier's
//! equivalence-preservation property tests and the SAT solver's
//! cross-validation tests both compare against it.

use std::collections::HashMap;

use crate::sort::{EnumSortId, Sort};
use crate::term::{Ctx, TermId, TermNode, VarId};

/// A concrete value of some sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Enumeration value: sort and variant index.
    Enum(EnumSortId, u16),
}

impl Value {
    /// The boolean inside, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer inside, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// A (possibly partial) map from variables to values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assignment {
    values: HashMap<VarId, Value>,
}

impl Assignment {
    /// Empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a variable to a value, replacing any previous binding.
    pub fn set(&mut self, v: VarId, val: Value) {
        self.values.insert(v, val);
    }

    /// Look up a variable.
    pub fn get(&self, v: VarId) -> Option<Value> {
        self.values.get(&v).copied()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over bindings in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.values.iter().map(|(&v, &val)| (v, val))
    }

    /// Evaluate a term of any sort. Returns `None` if an unbound variable is
    /// reached (partial assignment).
    pub fn eval(&self, ctx: &Ctx, t: TermId) -> Option<Value> {
        self.eval_memo(ctx, t, &mut HashMap::new())
    }

    /// [`Assignment::eval`] with its per-term results cached in `memo`, so a
    /// shared subterm is evaluated once. The cache stays valid across calls
    /// for as long as the assignment is unchanged: a caller evaluating many
    /// terms that share structure against one model keeps one memo for it.
    pub fn eval_memo(
        &self,
        ctx: &Ctx,
        t: TermId,
        memo: &mut HashMap<TermId, Option<Value>>,
    ) -> Option<Value> {
        if let Some(&v) = memo.get(&t) {
            return v;
        }
        let v = self.eval_node(ctx, t, memo);
        memo.insert(t, v);
        v
    }

    fn eval_node(
        &self,
        ctx: &Ctx,
        t: TermId,
        memo: &mut HashMap<TermId, Option<Value>>,
    ) -> Option<Value> {
        match ctx.node(t) {
            TermNode::True => Some(Value::Bool(true)),
            TermNode::False => Some(Value::Bool(false)),
            TermNode::BoolVar(v) | TermNode::EnumVar(v) | TermNode::IntVar(v) => self.get(*v),
            TermNode::Not(a) => Some(Value::Bool(!self.eval_memo(ctx, *a, memo)?.as_bool()?)),
            TermNode::And(cs) => {
                let mut acc = true;
                for &c in cs.iter() {
                    acc &= self.eval_memo(ctx, c, memo)?.as_bool()?;
                }
                Some(Value::Bool(acc))
            }
            TermNode::Or(cs) => {
                let mut acc = false;
                for &c in cs.iter() {
                    acc |= self.eval_memo(ctx, c, memo)?.as_bool()?;
                }
                Some(Value::Bool(acc))
            }
            TermNode::Implies(a, b) => {
                let a = self.eval_memo(ctx, *a, memo)?.as_bool()?;
                let b = self.eval_memo(ctx, *b, memo)?.as_bool()?;
                Some(Value::Bool(!a || b))
            }
            TermNode::Iff(a, b) => {
                let a = self.eval_memo(ctx, *a, memo)?.as_bool()?;
                let b = self.eval_memo(ctx, *b, memo)?.as_bool()?;
                Some(Value::Bool(a == b))
            }
            TermNode::Ite(c, a, b) => {
                if self.eval_memo(ctx, *c, memo)?.as_bool()? {
                    self.eval_memo(ctx, *a, memo)
                } else {
                    self.eval_memo(ctx, *b, memo)
                }
            }
            TermNode::EnumConst(e, v) => Some(Value::Enum(*e, *v)),
            TermNode::IntConst(c) => Some(Value::Int(*c)),
            TermNode::Eq(a, b) => {
                let a = self.eval_memo(ctx, *a, memo)?;
                let b = self.eval_memo(ctx, *b, memo)?;
                Some(Value::Bool(a == b))
            }
            TermNode::Le(a, b) => {
                let a = self.eval_memo(ctx, *a, memo)?.as_int()?;
                let b = self.eval_memo(ctx, *b, memo)?.as_int()?;
                Some(Value::Bool(a <= b))
            }
            TermNode::Lt(a, b) => {
                let a = self.eval_memo(ctx, *a, memo)?.as_int()?;
                let b = self.eval_memo(ctx, *b, memo)?.as_int()?;
                Some(Value::Bool(a < b))
            }
        }
    }

    /// Evaluate a boolean term to a `bool`.
    pub fn eval_bool(&self, ctx: &Ctx, t: TermId) -> Option<bool> {
        self.eval(ctx, t)?.as_bool()
    }

    /// Enumerate every total assignment over the given variables (cartesian
    /// product of their sorts' carrier sets) and call `f` on each. Intended
    /// for exhaustive checks over small variable sets in tests and for the
    /// brute-force baseline; panics if the product exceeds `limit`.
    pub fn for_all_assignments<F: FnMut(&Assignment)>(
        ctx: &Ctx,
        vars: &[VarId],
        limit: u64,
        mut f: F,
    ) {
        let enum_sizes = ctx.enum_sizes();
        let mut total: u64 = 1;
        for &v in vars {
            total = total.saturating_mul(ctx.var(v).sort.cardinality(&enum_sizes));
        }
        assert!(
            total <= limit,
            "assignment space {total} exceeds limit {limit}"
        );

        let mut asg = Assignment::new();
        fn rec<F: FnMut(&Assignment)>(
            ctx: &Ctx,
            vars: &[VarId],
            i: usize,
            asg: &mut Assignment,
            f: &mut F,
        ) {
            if i == vars.len() {
                f(asg);
                return;
            }
            let v = vars[i];
            match ctx.var(v).sort {
                Sort::Bool => {
                    for b in [false, true] {
                        asg.set(v, Value::Bool(b));
                        rec(ctx, vars, i + 1, asg, f);
                    }
                }
                Sort::Int { lo, hi } => {
                    for x in lo..=hi {
                        asg.set(v, Value::Int(x));
                        rec(ctx, vars, i + 1, asg, f);
                    }
                }
                Sort::Enum(e) => {
                    let n = ctx.enum_decl(e).variants.len() as u16;
                    for x in 0..n {
                        asg.set(v, Value::Enum(e, x));
                        rec(ctx, vars, i + 1, asg, f);
                    }
                }
            }
        }
        rec(ctx, vars, 0, &mut asg, &mut f);
    }
}

/// Check semantic equivalence of two boolean terms by exhaustive enumeration
/// over their free variables. Only usable when the combined assignment space
/// is at most `limit`; this is the test-suite oracle, not a production check.
pub fn brute_force_equivalent(ctx: &Ctx, a: TermId, b: TermId, limit: u64) -> bool {
    let mut vars = ctx.free_vars(a);
    for v in ctx.free_vars(b) {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    let mut equivalent = true;
    Assignment::for_all_assignments(ctx, &vars, limit, |asg| {
        if asg.eval_bool(ctx, a) != asg.eval_bool(ctx, b) {
            equivalent = false;
        }
    });
    equivalent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_bool_ops() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let and = ctx.and2(a, b);
        let or = ctx.or2(a, b);
        let imp = ctx.implies(a, b);
        let iff = ctx.iff(a, b);
        let na = ctx.not(a);

        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Bool(true));
        asg.set(VarId(1), Value::Bool(false));
        assert_eq!(asg.eval_bool(&ctx, and), Some(false));
        assert_eq!(asg.eval_bool(&ctx, or), Some(true));
        assert_eq!(asg.eval_bool(&ctx, imp), Some(false));
        assert_eq!(asg.eval_bool(&ctx, iff), Some(false));
        assert_eq!(asg.eval_bool(&ctx, na), Some(false));
    }

    #[test]
    fn eval_partial_assignment_is_none() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let and = ctx.and2(a, b);
        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Bool(true));
        assert_eq!(asg.eval_bool(&ctx, and), None);
    }

    #[test]
    fn eval_theory_atoms() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["x", "y"]);
        let e = ctx.enum_var("e", s);
        let cx = ctx.enum_const(s, 0);
        let i = ctx.int_var("i", 0, 10);
        let five = ctx.int_const(5);
        let eq = ctx.eq(e, cx);
        let le = ctx.le(i, five);
        let lt = ctx.lt(i, five);

        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Enum(s, 0));
        asg.set(VarId(1), Value::Int(5));
        assert_eq!(asg.eval_bool(&ctx, eq), Some(true));
        assert_eq!(asg.eval_bool(&ctx, le), Some(true));
        assert_eq!(asg.eval_bool(&ctx, lt), Some(false));
    }

    #[test]
    fn eval_ite_selects_branch() {
        let mut ctx = Ctx::new();
        let c = ctx.bool_var("c");
        let t = ctx.mk_true();
        let f = ctx.mk_false();
        let ite = ctx.ite(c, f, t);
        let mut asg = Assignment::new();
        asg.set(VarId(0), Value::Bool(true));
        assert_eq!(asg.eval_bool(&ctx, ite), Some(false));
        asg.set(VarId(0), Value::Bool(false));
        assert_eq!(asg.eval_bool(&ctx, ite), Some(true));
    }

    #[test]
    fn for_all_assignments_counts() {
        let mut ctx = Ctx::new();
        let s = ctx.enum_sort("S", &["x", "y", "z"]);
        ctx.bool_var("a");
        ctx.enum_var("e", s);
        ctx.int_var("i", 0, 1);
        let vars = vec![VarId(0), VarId(1), VarId(2)];
        let mut count = 0;
        Assignment::for_all_assignments(&ctx, &vars, 1000, |_| count += 1);
        assert_eq!(count, 2 * 3 * 2);
    }

    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn for_all_assignments_respects_limit() {
        let mut ctx = Ctx::new();
        ctx.int_var("i", 0, 1_000_000);
        Assignment::for_all_assignments(&ctx, &[VarId(0)], 10, |_| {});
    }

    #[test]
    fn brute_force_equivalence_demorgan() {
        let mut ctx = Ctx::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let and = ctx.and2(a, b);
        let lhs = ctx.not(and);
        let na = ctx.not(a);
        let nb = ctx.not(b);
        let rhs = ctx.or2(na, nb);
        assert!(brute_force_equivalent(&ctx, lhs, rhs, 100));
        assert!(!brute_force_equivalent(&ctx, a, b, 100));
    }
}
