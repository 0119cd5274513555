#[test]
fn hook_is_one() {
    assert_eq!(authdb_core::da::hook(), 1);
}
