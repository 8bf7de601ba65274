//! An integration test: its identifiers are callers, and no pass checks
//! its own code.

pub fn never_called_from_anywhere() {}

#[test]
fn counts_up() {
    assert_eq!(alpha::used_by_tests().next(), Some(1));
}
