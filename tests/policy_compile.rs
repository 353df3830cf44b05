//! Policy compile accounting. One test in its own binary, so the
//! process-wide `hth_policy_*` counters move only for what it does:
//! every session, serve open and restore over one config shares a
//! single compile, and a fleet-mode session compiles nothing.

use hth::hth_core::PolicyCounters;
use hth::{PolicyConfig, Secpert, Session, SessionConfig};
use hth_serve::{SessionTable, TableConfig};

#[test]
fn one_config_compiles_exactly_once() {
    let policy = PolicyConfig::default();
    let before = PolicyCounters::read();

    // Fleet mode ships events to an analyst pool: no expert of its own.
    let fleet =
        SessionConfig { policy: policy.clone(), analyze_inline: false, ..Default::default() };
    drop(Session::new(fleet).expect("fleet session"));
    assert_eq!(
        PolicyCounters::read(),
        before,
        "a fleet-mode session neither compiles nor instantiates"
    );

    for _ in 0..100 {
        let inline = SessionConfig { policy: policy.clone(), ..Default::default() };
        Session::new(inline).expect("inline session");
    }
    let table = SessionTable::new(TableConfig { policy: policy.clone(), ..TableConfig::default() });
    for sid in 0..100 {
        table.open(sid).expect("serve open");
    }
    let snapshot = Secpert::new(&policy).expect("expert").snapshot().expect("snapshot");
    for _ in 0..50 {
        Secpert::restore(&policy, &snapshot).expect("restore");
    }

    let after = PolicyCounters::read();
    assert_eq!(after.compiles - before.compiles, 1, "one compile for the whole process");
    assert_eq!(
        after.instantiations - before.instantiations,
        100 + 100 + 1 + 50,
        "one instantiation per session, open, snapshot source and restore"
    );
}
