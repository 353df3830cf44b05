//! Alpha pre-filter: a per-template summary of the constant-slot
//! discriminators every rule's condition elements were compiled to.
//!
//! The batched event pipeline asks, *before* building a fact, whether an
//! event could possibly begin a match anywhere in the rule base. The
//! answer is computed from the same [`compile`]d constant indexes the
//! Rete network uses for its alpha gate ([`MatchStats::alpha_tests`]),
//! so the filter is exact with respect to constant discrimination and
//! conservative with respect to everything else:
//!
//! * a fact **passes** when at least one condition element over its
//!   template accepts it constant-wise — including negated CEs (a fact
//!   that only *blocks* other rules still changes observable state) and
//!   CEs with no constant constraints at all (variables, predicates and
//!   multislot patterns discriminate nothing, so they accept everything);
//! * a fact is **skippable** only when *every* CE over its template
//!   rejects it on a constant slot, or no rule mentions the template at
//!   all. Such a fact can never enter a token, never block a negation
//!   (blocker checks run the same constant gate first), and never fire a
//!   rule — asserting it is observationally inert except for the fact-id
//!   counter, which is exactly why callers skip the assertion entirely
//!   and do so identically at every batch size.
//!
//! Soundness is pinned by `tests/prefilter_soundness.rs`: for random
//! rule sets and facts, anything the filter skips produces zero
//! activations through the unfiltered path under both matchers.
//!
//! [`MatchStats::alpha_tests`]: crate::MatchStats

use std::collections::HashMap;
use std::sync::Arc;

use crate::fact::Fact;
use crate::pattern::CondElem;
use crate::rete::CompiledNetwork;
use crate::value::Value;

/// One condition element's constant discriminators over a template.
#[derive(Clone, Debug)]
struct AlphaPosition {
    /// `(slot index, literal)` pairs the fact must carry verbatim.
    consts: Arc<[(usize, Value)]>,
}

/// Per-template alpha summary.
#[derive(Clone, Debug, Default)]
struct TemplateAlpha {
    /// Some CE over this template has no constant discriminators, so
    /// every fact of the template passes — the common case for catch-all
    /// cleanup rules. Short-circuits without touching `positions`.
    always: bool,
    /// Constant sets of the remaining CEs; a fact passes when it
    /// satisfies any one of them in full.
    positions: Vec<AlphaPosition>,
}

/// A snapshot of the rule base's alpha constants, built by
/// [`RuleBase::alpha_prefilter`](crate::RuleBase::alpha_prefilter).
///
/// The snapshot does not track later rule additions; rebuild it when
/// [`RuleBase::rules_revision`](crate::RuleBase::rules_revision) moves.
#[derive(Clone, Debug, Default)]
pub struct AlphaPrefilter {
    templates: HashMap<Arc<str>, TemplateAlpha>,
}

impl AlphaPrefilter {
    /// Builds the filter from a rule base's compiled productions: the
    /// per-CE constant sets the Rete alpha gate uses, in LHS order.
    pub(crate) fn build(net: &CompiledNetwork) -> AlphaPrefilter {
        let mut filter = AlphaPrefilter::default();
        for prod in &net.prods {
            for (ce, node) in prod.rule.lhs().iter().zip(&prod.nodes) {
                let (CondElem::Pattern(p) | CondElem::Not(p)) = ce else { continue };
                let entry = filter.templates.entry(p.template.clone()).or_default();
                if node.consts.is_empty() {
                    entry.always = true;
                } else if !entry.always {
                    entry.positions.push(AlphaPosition { consts: node.consts.clone().into() });
                }
            }
        }
        // Positions are only consulted when `always` is unset; drop the
        // ones accumulated before a catch-all CE arrived.
        for alpha in filter.templates.values_mut() {
            if alpha.always {
                alpha.positions.clear();
            }
        }
        filter
    }

    /// True when no rule constrains `template` beyond constants — every
    /// fact of the template passes without evaluating a single slot.
    pub fn always_passes(&self, template: &str) -> bool {
        self.templates.get(template).is_some_and(|a| a.always)
    }

    /// True when no rule mentions `template` at all: every fact of the
    /// template is skippable without evaluating a single slot.
    pub fn never_matches(&self, template: &str) -> bool {
        !self.templates.contains_key(template)
    }

    /// Could a fact of `template` whose slot values answer `slot_eq`
    /// begin a match anywhere in the rule base? `slot_eq(i, lit)` must
    /// return whether the (possibly not yet constructed) fact's slot `i`
    /// equals the literal — callers evaluate it straight off their event
    /// representation, skipping fact construction for rejects.
    pub fn can_match(
        &self,
        template: &str,
        mut slot_eq: impl FnMut(usize, &Value) -> bool,
    ) -> bool {
        let Some(alpha) = self.templates.get(template) else {
            return false;
        };
        alpha.always
            || alpha
                .positions
                .iter()
                .any(|p| p.consts.iter().all(|(slot, lit)| slot_eq(*slot, lit)))
    }

    /// [`AlphaPrefilter::can_match`] over an already-built fact.
    pub fn passes_fact(&self, fact: &Fact) -> bool {
        self.can_match(fact.template().name(), |slot, lit| &fact.slots()[slot] == lit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.load_str(
            r#"
            (deftemplate ev (slot kind) (slot n) (multislot tags))
            (deftemplate other (slot x))
            (defrule on_open (ev (kind open) (n ?n)) => (printout t ?n crlf))
            (defrule on_close_42 (ev (kind close) (n 42)) => (printout t "x" crlf))
            "#,
        )
        .unwrap();
        e
    }

    #[test]
    fn constant_rejects_are_skippable() {
        let e = engine();
        let f = e.alpha_prefilter();
        let mk = |kind: &str, n: i64| {
            e.fact("ev").unwrap().slot("kind", Value::sym(kind)).slot("n", n).build().unwrap()
        };
        assert!(f.passes_fact(&mk("open", 7)), "matches on_open");
        assert!(f.passes_fact(&mk("close", 42)), "matches on_close_42");
        assert!(!f.passes_fact(&mk("close", 41)), "close with wrong n matches nothing");
        assert!(!f.passes_fact(&mk("read", 42)), "unknown kind matches nothing");
    }

    #[test]
    fn unmentioned_template_never_matches() {
        let e = engine();
        let f = e.alpha_prefilter();
        assert!(f.never_matches("other"));
        let fact = e.fact("other").unwrap().slot("x", 1).build().unwrap();
        assert!(!f.passes_fact(&fact));
    }

    #[test]
    fn catch_all_ce_makes_template_always_pass() {
        let mut e = engine();
        e.load_str("(defrule cleanup (declare (salience -10)) ?f <- (ev) => (retract ?f))")
            .unwrap();
        let f = e.alpha_prefilter();
        assert!(f.always_passes("ev"));
        let fact = e.fact("ev").unwrap().slot("kind", Value::sym("zzz")).build().unwrap();
        assert!(f.passes_fact(&fact), "catch-all cleanup accepts every ev fact");
    }

    #[test]
    fn negated_ces_count_as_match_positions() {
        let mut e = Engine::new();
        e.load_str(
            r#"
            (deftemplate flag (slot kind))
            (deftemplate ev (slot n))
            (defrule unless_armed (ev (n ?n)) (not (flag (kind armed))) =>
              (printout t ?n crlf))
            "#,
        )
        .unwrap();
        let f = e.alpha_prefilter();
        let armed = e.fact("flag").unwrap().slot("kind", Value::sym("armed")).build().unwrap();
        let other = e.fact("flag").unwrap().slot("kind", Value::sym("other")).build().unwrap();
        assert!(f.passes_fact(&armed), "a blocker changes observable state");
        assert!(!f.passes_fact(&other), "non-blocker flag matches nothing");
    }

    #[test]
    fn revision_moves_with_rule_additions() {
        let mut e = engine();
        let r0 = e.rules_revision();
        e.load_str("(defrule extra (ev (kind extra)) => (printout t \"e\" crlf))").unwrap();
        assert_ne!(e.rules_revision(), r0);
        let f = e.alpha_prefilter();
        let fact = e.fact("ev").unwrap().slot("kind", Value::sym("extra")).build().unwrap();
        assert!(f.passes_fact(&fact));
    }
}
