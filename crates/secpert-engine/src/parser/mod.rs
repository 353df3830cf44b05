//! CLIPS-syntax frontend: `deftemplate`, `defrule`, `defglobal`,
//! `deffacts` and fact forms, parsed into the engine's native structures.
//!
//! The subset implemented is exactly what the HTH policy (paper Appendix
//! A) uses, plus the general expression grammar so new rules can be
//! authored without touching Rust.

mod lexer;
mod reader;

pub use lexer::{lex, Tok, Token};
pub use reader::{parse_fact_form, parse_program, Construct, ParsedFact};

use crate::engine::Engine;
use crate::error::Result;
use crate::fact::FactId;

impl Engine {
    /// Loads CLIPS-style source: `deftemplate`, `defrule`, `defglobal`
    /// and `deffacts` constructs, applied in order to this engine's
    /// rule base (copy-on-write: a shared base is cloned first, see
    /// [`RuleBase`](crate::RuleBase)). Every rule added is then joined
    /// against the current working memory.
    ///
    /// # Errors
    ///
    /// Returns parse errors (with positions) and semantic errors
    /// (unknown templates/slots, redefinitions).
    ///
    /// ```
    /// use secpert_engine::Engine;
    /// # fn main() -> Result<(), secpert_engine::EngineError> {
    /// let mut engine = Engine::new();
    /// engine.load_str("(deftemplate ev (slot n)) (defglobal ?*LIMIT* = 5)")?;
    /// assert!(engine.template("ev").is_some());
    /// # Ok(())
    /// # }
    /// ```
    pub fn load_str(&mut self, src: &str) -> Result<()> {
        let attached = self.rule_base().rule_count();
        let loaded = self.rules_mut().load_str(src);
        // Rules added before a failing construct stay, so they attach
        // either way.
        self.attach_rules_from(attached)?;
        loaded
    }

    /// Parses and asserts a single fact form like
    /// `(system_call_access (time 33) (resource_name "/bin/ls"))`.
    ///
    /// Returns the new fact id, or `None` for suppressed duplicates.
    ///
    /// # Errors
    ///
    /// Returns parse errors and unknown template/slot errors.
    pub fn assert_str(&mut self, src: &str) -> Result<Option<FactId>> {
        let parsed = parse_fact_form(src)?;
        let fact = self.rule_base().build_parsed_fact(&parsed)?;
        self.assert_fact(fact)
    }
}
