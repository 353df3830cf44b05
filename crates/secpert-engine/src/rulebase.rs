//! The compiled rule base: everything about a policy that is fixed once
//! it is loaded, shared by every engine instantiated from it.
//!
//! A [`RuleBase`] holds the templates, the parsed rules and their
//! compiled match-network productions, deffunctions, deffacts, globals
//! and shared native functions. An [`Engine`](crate::Engine) holds an
//! `Arc<RuleBase>` plus only its mutable state (working memory, tokens
//! and beta memories, agenda, refraction, firings), so building the
//! policy once and calling [`Engine::instantiate`](crate::Engine::instantiate)
//! per session skips the CLIPS parse and rule compile entirely.
//!
//! Changing an engine's rules ([`Engine::load_str`](crate::Engine::load_str),
//! [`Engine::add_rule`](crate::Engine::add_rule), …) is copy-on-write:
//! the engine clones the shared base into a private one first, so its
//! siblings and whoever handed out the `Arc` never see the change.

use std::sync::Arc;

use crate::engine::{NativeFn, UserFn};
use crate::error::{EngineError, Result};
use crate::fact::{Fact, FactBuilder};
use crate::fxhash::FxHashMap;
use crate::parser::{parse_program, Construct, ParsedFact};
use crate::pattern::{CondElem, PatternCE};
use crate::prefilter::AlphaPrefilter;
use crate::rete::CompiledNetwork;
use crate::rule::Rule;
use crate::template::Template;
use crate::value::Value;

/// An immutable-once-shared, compiled policy: templates, rules and
/// their compiled productions, deffunctions, deffacts, globals and
/// shared natives.
///
/// ```
/// use std::sync::Arc;
/// use secpert_engine::{Engine, Matcher, RuleBase};
/// # fn main() -> Result<(), secpert_engine::EngineError> {
/// let mut rules = RuleBase::new();
/// rules.load_str(r#"
///   (deftemplate greeting (slot to))
///   (defrule hello (greeting (to ?who)) => (printout t "hello " ?who crlf))
/// "#)?;
/// let rules = Arc::new(rules);
/// // Two independent engines over one compiled rule base.
/// let mut a = Engine::instantiate(rules.clone(), Matcher::default())?;
/// let mut b = Engine::instantiate(rules, Matcher::default())?;
/// a.assert_str("(greeting (to world))")?;
/// a.run(None)?;
/// b.run(None)?;
/// assert_eq!(a.take_output(), "hello world\n");
/// assert_eq!(b.take_output(), "");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct RuleBase {
    pub(crate) templates: FxHashMap<Arc<str>, Arc<Template>>,
    pub(crate) rules: Vec<Arc<Rule>>,
    pub(crate) rule_names: FxHashMap<Arc<str>, usize>,
    pub(crate) globals: FxHashMap<Arc<str>, Value>,
    pub(crate) natives: FxHashMap<Arc<str>, NativeFn>,
    pub(crate) userfns: FxHashMap<Arc<str>, Arc<UserFn>>,
    pub(crate) deffacts: Vec<Fact>,
    /// Every rule's compiled productions and the template dispatch
    /// tables, one production per rule, in rule order.
    pub(crate) network: CompiledNetwork,
    /// Bumped on every successful [`RuleBase::add_rule`], so callers
    /// caching an [`AlphaPrefilter`] snapshot know when to rebuild.
    rules_revision: u64,
}

impl Default for RuleBase {
    fn default() -> RuleBase {
        RuleBase::new()
    }
}

impl std::fmt::Debug for RuleBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleBase")
            .field("templates", &self.templates.len())
            .field("rules", &self.rules.len())
            .field("natives", &self.natives.len())
            .field("rules_revision", &self.rules_revision)
            .finish_non_exhaustive()
    }
}

impl RuleBase {
    /// An empty rule base holding only the implicit `initial-fact`
    /// template.
    pub fn new() -> RuleBase {
        let mut rules = RuleBase {
            templates: FxHashMap::default(),
            rules: Vec::new(),
            rule_names: FxHashMap::default(),
            globals: FxHashMap::default(),
            natives: FxHashMap::default(),
            userfns: FxHashMap::default(),
            deffacts: Vec::new(),
            network: CompiledNetwork::default(),
            rules_revision: 0,
        };
        rules
            .add_template(Template::new("initial-fact", []))
            .expect("initial-fact is the first template");
        rules
    }

    /// Registers a template.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Redefinition`] when the name is taken.
    pub fn add_template(&mut self, template: Template) -> Result<Arc<Template>> {
        let name: Arc<str> = Arc::from(template.name());
        if self.templates.contains_key(&name) {
            return Err(EngineError::Redefinition(name.to_string()));
        }
        let arc = Arc::new(template);
        self.templates.insert(name, arc.clone());
        Ok(arc)
    }

    /// Looks up a registered template.
    pub fn template(&self, name: &str) -> Option<&Arc<Template>> {
        self.templates.get(name)
    }

    /// Registers and compiles a rule, validating its patterns against
    /// known templates. Returns the rule's index.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Redefinition`], [`EngineError::UnknownTemplate`]
    /// or [`EngineError::UnknownSlot`] on malformed rules.
    pub fn add_rule(&mut self, rule: Rule) -> Result<usize> {
        let name: Arc<str> = Arc::from(rule.name());
        if self.rule_names.contains_key(&name) {
            return Err(EngineError::Redefinition(name.to_string()));
        }
        for ce in rule.lhs() {
            if let CondElem::Pattern(p) | CondElem::Not(p) = ce {
                let template = self
                    .templates
                    .get(p.template.as_ref())
                    .ok_or_else(|| EngineError::UnknownTemplate(p.template.to_string()))?;
                for (slot, _) in &p.slots {
                    template.slot(slot)?;
                }
            }
        }
        // Rules without a positive pattern are seeded by `initial-fact`.
        let rule = if rule.needs_initial_fact() {
            let mut lhs = vec![CondElem::Pattern(PatternCE::new("initial-fact"))];
            lhs.extend(rule.lhs().iter().cloned());
            let rebuilt = Rule::new(rule.name(), rule.salience(), lhs, rule.rhs().to_vec());
            match rule.doc() {
                Some(doc) => rebuilt.with_doc(doc),
                None => rebuilt,
            }
        } else {
            rule
        };
        let rule = Arc::new(rule);
        let idx = self.network.add_production(rule.clone(), &self.templates);
        debug_assert_eq!(idx, self.rules.len(), "one production per rule");
        self.rules.push(rule);
        self.rule_names.insert(name, idx);
        self.rules_revision += 1;
        Ok(idx)
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Names of all registered rules, in definition order.
    pub fn rule_names(&self) -> impl Iterator<Item = &str> {
        self.rules.iter().map(|r| r.name())
    }

    /// Registers a user-defined function (`deffunction`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Redefinition`] when the name is taken.
    pub fn add_function(&mut self, f: UserFn) -> Result<()> {
        if self.userfns.contains_key(&f.name) {
            return Err(EngineError::Redefinition(f.name.to_string()));
        }
        self.userfns.insert(f.name.clone(), Arc::new(f));
        Ok(())
    }

    /// Registers a native function callable from rules, shared by every
    /// engine instantiated from this rule base.
    pub fn register_fn(
        &mut self,
        name: impl AsRef<str>,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.natives.insert(Arc::from(name.as_ref()), Arc::new(f));
    }

    /// Defines or updates a global (`?*name*`).
    pub fn set_global(&mut self, name: impl AsRef<str>, value: impl Into<Value>) {
        self.globals.insert(Arc::from(name.as_ref()), value.into());
    }

    /// Reads a global.
    pub fn get_global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Adds a fact asserted automatically by [`Engine::reset`](crate::Engine::reset).
    pub fn add_deffact(&mut self, fact: Fact) {
        self.deffacts.push(fact);
    }

    /// Monotonic counter bumped on every rule addition. Callers caching
    /// an [`AlphaPrefilter`] compare revisions to know when to rebuild.
    pub fn rules_revision(&self) -> u64 {
        self.rules_revision
    }

    /// Builds an [`AlphaPrefilter`] snapshot of the rule base's constant
    /// discriminators (see that type for the soundness contract). Stale
    /// once [`RuleBase::rules_revision`] moves.
    pub fn alpha_prefilter(&self) -> AlphaPrefilter {
        AlphaPrefilter::build(&self.network)
    }

    /// Starts building a fact of a registered template.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownTemplate`] for unknown names.
    pub fn fact(&self, template: &str) -> Result<FactBuilder> {
        let t = self
            .templates
            .get(template)
            .ok_or_else(|| EngineError::UnknownTemplate(template.to_string()))?;
        Ok(FactBuilder::new(t.clone()))
    }

    /// Loads CLIPS-style source: `deftemplate`, `defrule`, `defglobal`,
    /// `deffunction` and `deffacts` constructs, applied in order. On an
    /// error, the constructs before the failing one stay applied.
    ///
    /// # Errors
    ///
    /// Returns parse errors (with positions) and semantic errors
    /// (unknown templates/slots, redefinitions).
    pub fn load_str(&mut self, src: &str) -> Result<()> {
        let constructs = parse_program(src, &|name| self.template(name).cloned())?;
        for construct in constructs {
            match construct {
                Construct::Template(t) => {
                    self.add_template(t)?;
                }
                Construct::Rule(r) => {
                    self.add_rule(r)?;
                }
                Construct::Global(name, value) => self.set_global(name, value),
                Construct::Function(f) => self.add_function(f)?,
                Construct::Deffacts(facts) => {
                    for parsed in facts {
                        let fact = self.build_parsed_fact(&parsed)?;
                        self.add_deffact(fact);
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn build_parsed_fact(&self, parsed: &ParsedFact) -> Result<Fact> {
        let mut builder = self.fact(&parsed.template)?;
        for (slot, values) in &parsed.slots {
            let value = match values.as_slice() {
                [single] => single.clone(),
                many => Value::multi(many.iter().cloned()),
            };
            builder = builder.slot(slot, value);
        }
        builder.build()
    }
}
