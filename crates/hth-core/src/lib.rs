//! # hth-core — the HTH framework: Secpert policy + monitoring sessions
//!
//! This crate assembles the reproduction of *Hunting Trojan Horses*
//! (Moffie & Kaeli, NUCAR TR-01, 2006): the [`Secpert`] security expert
//! (the paper's CLIPS policy, §4 and Appendix A, evaluated by
//! `secpert-engine`) and the [`Session`] driver that runs a program
//! under the Harrier monitor, feeds events through the policy, and
//! collects [`Warning`]s.
//!
//! ```
//! use hth_core::{Session, SessionConfig, Severity};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut session = Session::new(SessionConfig::default())?;
//! session.kernel.register_binary(
//!     "/bin/dropper",
//!     r#"
//!     _start:
//!         mov eax, 11        ; execve
//!         mov ebx, prog      ; hardcoded program name
//!         int 0x80
//!         hlt
//!     .data
//!     prog: .asciz "/bin/ls"
//!     "#,
//!     &[],
//! );
//! session.start("/bin/dropper", &["/bin/dropper"], &[])?;
//! session.run()?;
//! assert_eq!(session.max_severity(), Some(Severity::Low));
//! assert!(session.warnings()[0].message.contains("/bin/ls"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod correlate;
mod cross_session;
mod digest;
mod memo;
mod policy;
mod provenance;
mod secpert;
mod session;
mod warning;

pub use correlate::{CorrelateConfig, CorrelationReport, Correlator};
pub use cross_session::{BotnetReport, DropRecord, SessionHistory};
pub use digest::{digest_session, DigestBuilder, DropIdentity, SessionDigest};
pub use policy::{PolicyConfig, POLICY_CLIPS};
pub use provenance::{FactSupport, Provenance};
pub use secpert::{CompiledPolicy, PolicyCounters, Secpert};
pub use secpert_engine::SnapshotError;
pub use session::{EventTap, RunReport, Session, SessionConfig, SessionError, SessionSummary};
pub use warning::{Severity, Warning};

// Re-export the layers below so downstream users need only this crate.
pub use emukernel;
pub use harrier;
pub use hth_vm;
pub use secpert_engine;
