//! The cycle-budget gate has no override: the removed variable, set, stops
//! `budget_check` before it measures anything, and says what to do instead.

use std::process::Command;

#[test]
fn the_removed_override_stops_the_gate_and_names_bless() {
    for value in ["1", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_budget_check"))
            .env("GRAPHENE_BUDGET_OVERRIDE", value)
            .env_remove("GRAPHENE_BUDGET_BLESS")
            .output()
            .expect("budget_check starts");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "GRAPHENE_BUDGET_OVERRIDE={value}: {err}");
        assert!(err.contains("GRAPHENE_BUDGET_OVERRIDE was removed"), "{err}");
        assert!(err.contains("GRAPHENE_BUDGET_BLESS=1"), "{err}");
        assert!(out.stdout.is_empty(), "it measured: {}", String::from_utf8_lossy(&out.stdout));
    }
}
