//! # secpert-engine — a CLIPS-like expert-system engine
//!
//! This crate is the rule-engine substrate beneath HTH's *Secpert*
//! security expert (Moffie & Kaeli, *Hunting Trojan Horses*, NUCAR TR-01,
//! 2006). The paper implemented Secpert on NASA CLIPS; this crate
//! re-implements the CLIPS subset the policy needs:
//!
//! * **templates** (`deftemplate`) with single and multifield slots,
//! * **facts** asserted into working memory with duplicate suppression,
//! * **rules** (`defrule`) whose left-hand sides combine pattern CEs
//!   (literals, variables `?x`, multifield variables `$?x`, wildcards,
//!   `~`/`|`/`&` connective constraints, `:(pred)` and `=(expr)`
//!   constraints), `not` CEs and `test` CEs,
//! * a **match–resolve–act loop** with salience + recency conflict
//!   resolution and refraction,
//! * **globals** (`defglobal`), **native functions** registered from Rust
//!   (the policy's `filter_binary` / `filter_socket`), and
//! * a **CLIPS-syntax text frontend** so rules can be written exactly as
//!   they appear in the paper's Appendix A.
//!
//! ## Example
//!
//! ```
//! use secpert_engine::Engine;
//! # fn main() -> Result<(), secpert_engine::EngineError> {
//! let mut engine = Engine::new();
//! engine.load_str(r#"
//!   (deftemplate system_call_access
//!     (slot system_call_name)
//!     (slot resource_name)
//!     (multislot resource_origin_type))
//!
//!   (defrule check_execve "warn on hardcoded execve"
//!     (system_call_access (system_call_name SYS_execve)
//!                         (resource_name ?name)
//!                         (resource_origin_type $? BINARY $?))
//!     =>
//!     (printout t "Warning [LOW] Found SYS_execve call " ?name crlf))
//! "#)?;
//! engine.assert_str(
//!     "(system_call_access (system_call_name SYS_execve)
//!                          (resource_name \"/bin/ls\")
//!                          (resource_origin_type BINARY))",
//! )?;
//! engine.run(None)?;
//! assert!(engine.take_output().contains("Warning [LOW]"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod builtins;
pub mod correlate;
mod engine;
mod error;
mod explain;
mod expr;
mod fact;
pub mod frame;
pub mod fxhash;
pub mod parser;
mod pattern;
mod prefilter;
mod rete;
mod rule;
mod rulebase;
pub mod snapshot;
mod template;
mod value;

pub use correlate::{CORRELATE_RULES, DIGEST_TEMPLATES};
pub use engine::{Engine, Matcher, NativeFn, Strategy, UserFn};
pub use error::{EngineError, Result};
pub use explain::{FactSupportRecord, FiringRecord};
pub use expr::{eval, Bindings, Expr, Host};
pub use fact::{Fact, FactBuilder, FactId, WorkingMemory};
pub use pattern::{Atom, CondElem, FieldConstraint, PatternCE, SlotPattern, Term};
pub use prefilter::AlphaPrefilter;
pub use rete::MatchStats;
pub use rule::{Rule, RuleBuilder};
pub use rulebase::RuleBase;
pub use snapshot::{EngineSnapshot, FactRecord, SnapshotError};
pub use template::{SlotDef, SlotKind, Template};
pub use value::Value;
